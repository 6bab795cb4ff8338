// End-to-end signal handling of the dmfb_serve binary. An idle daemon, its
// stdin a pipe whose writer stays open so that no EOF ever arrives, sits
// blocked in its read; SIGTERM must still drain it, exit status 0, within
// 1 s — also once a --store writer thread exists, and with that writer's
// record on disk. A daemon killed with SIGKILL mid-batch loses at most the
// records its writer had not renamed yet: re-serving the batch on the same
// store answers byte-identically to a cold daemon and drops nothing as
// corrupt. Each daemon is spawned with an empty signal mask and default
// dispositions, whatever the test runner hands down; its pipes belong to
// this test alone, and every path kills and reaps it, so nothing outlives
// the test.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <thread>
#include <vector>

extern char** environ;

namespace dmfb::serve {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;
using std::chrono::seconds;

/// Fresh empty directory under the system temp root, removed on scope exit.
class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = fs::temp_directory_path() /
            ("dmfb_serve_signals_" + tag + "_" + std::to_string(::getpid()));
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

/// Moves `fd` above the standard streams (close-on-exec), so a runner that
/// closed stdin cannot make a pipe end collide with a dup2 target.
int above_stdio(int fd) {
  if (fd < 0 || fd > STDERR_FILENO) return fd;
  const int moved = fcntl(fd, F_DUPFD_CLOEXEC, STDERR_FILENO + 1);
  close(fd);
  return moved;
}

/// A dmfb_serve child: stdin a file, or else a pipe this test holds open;
/// stdout a file, or else discarded; stderr a pipe this test reads. The
/// destructor SIGKILLs and reaps a child that is still running.
class Daemon {
 public:
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      int status = 0;
      while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
      }
    }
    if (stdin_fd_ >= 0) close(stdin_fd_);
    if (stderr_fd_ >= 0) close(stderr_fd_);
  }

  bool start(const char* binary, const std::vector<std::string>& args = {},
             const fs::path& stdin_path = {},
             const fs::path& stdout_path = {}) {
    int in[2];
    int err[2];
    if (pipe2(in, O_CLOEXEC) != 0) return false;
    if (pipe2(err, O_CLOEXEC) != 0) {
      close(in[0]);
      close(in[1]);
      return false;
    }
    for (int* fd : {&in[0], &in[1], &err[0], &err[1]}) *fd = above_stdio(*fd);
    stdin_fd_ = in[1];
    stderr_fd_ = err[0];

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    if (stdin_path.empty()) {
      posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    } else {
      posix_spawn_file_actions_addopen(&actions, STDIN_FILENO,
                                       stdin_path.c_str(), O_RDONLY, 0);
    }
    if (stdout_path.empty()) {
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                       O_WRONLY, 0);
    } else {
      posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO,
                                       stdout_path.c_str(),
                                       O_WRONLY | O_CREAT | O_TRUNC, 0644);
    }
    posix_spawn_file_actions_adddup2(&actions, err[1], STDERR_FILENO);
    posix_spawnattr_t attributes;
    posix_spawnattr_init(&attributes);
    sigset_t none;
    sigemptyset(&none);
    posix_spawnattr_setsigmask(&attributes, &none);
    sigset_t defaults;
    sigemptyset(&defaults);
    sigaddset(&defaults, SIGTERM);
    sigaddset(&defaults, SIGINT);
    sigaddset(&defaults, SIGPIPE);
    posix_spawnattr_setsigdefault(&attributes, &defaults);
    posix_spawnattr_setflags(&attributes,
                             POSIX_SPAWN_SETSIGMASK | POSIX_SPAWN_SETSIGDEF);
    std::vector<char*> argv{const_cast<char*>(binary)};
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    const int spawned = posix_spawn(&pid_, binary, &actions, &attributes,
                                    argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attributes);
    close(in[0]);
    close(err[1]);
    if (spawned != 0) pid_ = -1;
    return spawned == 0;
  }

  pid_t pid() const noexcept { return pid_; }

  /// Writes `text` to the held-open stdin pipe.
  bool send(const std::string& text) {
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t wrote =
          write(stdin_fd_, text.data() + sent, text.size() - sent);
      if (wrote < 0 && errno == EINTR) continue;
      if (wrote <= 0) return false;
      sent += static_cast<std::size_t>(wrote);
    }
    return true;
  }
  const std::string& stderr_text() const noexcept { return stderr_text_; }

  /// Reads stderr until it holds `text`; false at `deadline` or when the
  /// daemon closes stderr first.
  bool wait_for_stderr(const std::string& text, Clock::time_point deadline) {
    while (stderr_text_.find(text) == std::string::npos) {
      const auto left =
          std::chrono::duration_cast<milliseconds>(deadline - Clock::now());
      if (left.count() <= 0) return false;
      pollfd readable{stderr_fd_, POLLIN, 0};
      const int ready = poll(&readable, 1, static_cast<int>(left.count()));
      if (ready < 0 && errno == EINTR) continue;
      if (ready <= 0) return false;
      char chunk[512];
      const ssize_t got = read(stderr_fd_, chunk, sizeof chunk);
      if (got < 0 && errno == EINTR) continue;
      if (got <= 0) return false;
      stderr_text_.append(chunk, static_cast<std::size_t>(got));
    }
    return true;
  }

  /// The daemon's wait status once it exits, or nullopt if it is still
  /// running at `deadline`.
  std::optional<int> wait_exit(Clock::time_point deadline) {
    for (;;) {
      int status = 0;
      const pid_t done = waitpid(pid_, &status, WNOHANG);
      if (done == pid_) {
        pid_ = -1;
        return status;
      }
      if (done < 0 && errno != EINTR) {
        pid_ = -1;  // not our child any more: never signal that pid again
        return std::nullopt;
      }
      if (Clock::now() >= deadline) return std::nullopt;
      std::this_thread::sleep_for(milliseconds(5));
    }
  }

 private:
  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stderr_fd_ = -1;
  std::string stderr_text_;
};

std::string describe(int status) {
  if (WIFEXITED(status)) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  if (WIFSIGNALED(status)) {
    return "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return "wait status " + std::to_string(status);
}

TEST(ServeSignals, IdleDaemonExitsOnSigterm) {
  Daemon daemon;
  ASSERT_TRUE(daemon.start(DMFB_SERVE_BINARY))
      << "cannot spawn " << DMFB_SERVE_BINARY;
  // The banner follows the handler's installation; then the reader blocks.
  ASSERT_TRUE(daemon.wait_for_stderr(
      "serving on stdio", Clock::now() + std::chrono::seconds(10)))
      << "no banner within 10 s; stderr so far: " << daemon.stderr_text();
  std::this_thread::sleep_for(milliseconds(200));

  ASSERT_EQ(kill(daemon.pid(), SIGTERM), 0);
  const std::optional<int> status =
      daemon.wait_exit(Clock::now() + std::chrono::seconds(1));
  ASSERT_TRUE(status.has_value()) << "dmfb_serve still running 1 s after "
                                     "SIGTERM with stdin held open";
  EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0)
      << describe(*status);
}

/// The lines of `path` so far (0 while it does not exist).
std::vector<std::string> lines_of(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

/// The files under a store root: records (*.rec) and everything else.
struct StoreFiles {
  std::size_t records = 0;
  std::vector<std::string> others;
};
StoreFiles store_files(const fs::path& root) {
  StoreFiles files;
  std::error_code error;
  for (fs::recursive_directory_iterator entry(root, error), end;
       !error && entry != end; entry.increment(error)) {
    if (!entry->is_regular_file()) continue;
    if (entry->path().extension() == ".rec") {
      ++files.records;
    } else {
      files.others.push_back(entry->path().filename().string());
    }
  }
  return files;
}

/// Polls until `done` holds; false at `deadline`.
template <typename Done>
bool poll_until(Done done, Clock::time_point deadline) {
  while (!done()) {
    if (Clock::now() >= deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

TEST(ServeSignals, IdleDaemonWithAStoreWriterExitsOnSigterm) {
  // One computed query starts the store's writer thread; SIGTERM must still
  // reach the reader, not the idle writer, and the record must be on disk.
  TempDir dir("idle_store");
  const fs::path store = dir.path() / "store";
  const fs::path answers = dir.path() / "answers.jsonl";
  Daemon daemon;
  ASSERT_TRUE(daemon.start(DMFB_SERVE_BINARY, {"--store", store.string()},
                           {}, answers))
      << "cannot spawn " << DMFB_SERVE_BINARY;
  ASSERT_TRUE(daemon.send("{\"design\": \"dtmb1_6\", \"injector\": "
                          "\"bernoulli\", \"param\": 0.9, \"runs\": 100}\n"));
  ASSERT_TRUE(poll_until([&] { return lines_of(answers).size() == 1; },
                         Clock::now() + seconds(10)))
      << "no answer within 10 s; stderr so far: " << daemon.stderr_text();
  std::this_thread::sleep_for(milliseconds(200));

  ASSERT_EQ(kill(daemon.pid(), SIGTERM), 0);
  const std::optional<int> status =
      daemon.wait_exit(Clock::now() + seconds(1));
  ASSERT_TRUE(status.has_value()) << "dmfb_serve with a store writer still "
                                     "running 1 s after SIGTERM";
  EXPECT_TRUE(WIFEXITED(*status) && WEXITSTATUS(*status) == 0)
      << describe(*status);
  const StoreFiles files = store_files(store);
  EXPECT_EQ(files.records, 1u);
  EXPECT_TRUE(files.others.empty()) << files.others.front();
}

TEST(ServeSignals, KillNineMidBatchLosesOnlyUnwrittenRecords) {
  // 200 fresh queries. The killed daemon only ever receives 150 of them on
  // a held-open pipe, so it is SIGKILLed midway however fast it computes:
  // once 100 are answered and at least one record is on disk.
  constexpr int kQueries = 200;
  constexpr int kSent = 150;
  constexpr std::size_t kAnsweredAtKill = 100;
  TempDir dir("kill9");
  std::vector<std::string> queries;
  for (int i = 0; i < kQueries; ++i) {
    queries.push_back("{\"design\": \"dtmb2_6\", \"injector\": \"bernoulli\", "
                      "\"param\": " +
                      std::to_string(0.8 + 0.0005 * i) + ", \"runs\": 1000}\n");
  }
  const fs::path batch = dir.path() / "batch.jsonl";
  {
    std::ofstream out(batch, std::ios::binary);
    for (const std::string& query : queries) out << query;
  }
  // Serves the whole batch from a file; returns stderr up to `last_words`.
  const auto serve_batch = [&](const std::vector<std::string>& args,
                               const fs::path& answers,
                               const std::string& last_words) {
    Daemon daemon;
    EXPECT_TRUE(daemon.start(DMFB_SERVE_BINARY, args, batch, answers));
    const std::optional<int> status =
        daemon.wait_exit(Clock::now() + seconds(20));
    EXPECT_TRUE(status && WIFEXITED(*status) && WEXITSTATUS(*status) == 0)
        << (status ? describe(*status) : "still running after 20 s");
    daemon.wait_for_stderr(last_words, Clock::now() + seconds(5));
    return daemon.stderr_text();
  };

  const fs::path cold = dir.path() / "cold.jsonl";
  serve_batch({"--threads", "2"}, cold, "\"evictions\"");
  ASSERT_EQ(lines_of(cold).size(), static_cast<std::size_t>(kQueries));

  const fs::path store = dir.path() / "store";
  const fs::path killed_answers = dir.path() / "killed.jsonl";
  {
    Daemon daemon;
    ASSERT_TRUE(daemon.start(DMFB_SERVE_BINARY,
                             {"--threads", "2", "--store", store.string()},
                             {}, killed_answers));
    std::string sent;
    for (int i = 0; i < kSent; ++i) {
      sent += queries[static_cast<std::size_t>(i)];
    }
    ASSERT_TRUE(daemon.send(sent));
    ASSERT_TRUE(poll_until(
        [&] {
          return lines_of(killed_answers).size() >= kAnsweredAtKill &&
                 store_files(store).records > 0;
        },
        Clock::now() + seconds(20)))
        << "fewer than " << kAnsweredAtKill << " answers or no record in 20 s";
    ASSERT_EQ(kill(daemon.pid(), SIGKILL), 0);
    const std::optional<int> status =
        daemon.wait_exit(Clock::now() + seconds(5));
    ASSERT_TRUE(status.has_value());
    EXPECT_TRUE(WIFSIGNALED(*status) && WTERMSIG(*status) == SIGKILL)
        << describe(*status);
  }

  const fs::path resumed = dir.path() / "resumed.jsonl";
  const fs::path stats = dir.path() / "stats.json";
  const std::string resumed_stderr =
      serve_batch({"--threads", "2", "--store", store.string(),
                   "--stats-json", stats.string()},
                  resumed, "corrupt dropped");
  EXPECT_EQ(lines_of(resumed), lines_of(cold));
  EXPECT_NE(resumed_stderr.find(", 0 corrupt dropped"), std::string::npos)
      << resumed_stderr;
  // Every query is answered from the store or computed, and the killed
  // daemon's records were found.
  const std::vector<std::string> summary = lines_of(stats);
  ASSERT_EQ(summary.size(), 1u);
  EXPECT_NE(summary[0].find("\"answered\": 200,"), std::string::npos)
      << summary[0];
  EXPECT_EQ(summary[0].find("\"store_hits\": 0,"), std::string::npos)
      << summary[0];
  // The resumed daemon's open swept the killed writer's temps, and its own
  // writes all landed: every query now has its record and nothing else.
  const StoreFiles files = store_files(store);
  EXPECT_EQ(files.records, static_cast<std::size_t>(kQueries));
  EXPECT_TRUE(files.others.empty()) << files.others.front();
}

}  // namespace
}  // namespace dmfb::serve
