// End-to-end signal handling of the dmfb_serve binary. An idle daemon, its
// stdin a pipe whose writer stays open so that no EOF ever arrives, sits
// blocked in its read; SIGTERM must still drain it, exit status 0, within
// 1 s. The daemon is spawned with an empty signal mask and default
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
#include <optional>
#include <string>
#include <thread>

extern char** environ;

namespace dmfb::serve {
namespace {

using Clock = std::chrono::steady_clock;
using std::chrono::milliseconds;

/// Moves `fd` above the standard streams (close-on-exec), so a runner that
/// closed stdin cannot make a pipe end collide with a dup2 target.
int above_stdio(int fd) {
  if (fd < 0 || fd > STDERR_FILENO) return fd;
  const int moved = fcntl(fd, F_DUPFD_CLOEXEC, STDERR_FILENO + 1);
  close(fd);
  return moved;
}

/// A dmfb_serve child: stdin a pipe this test holds open, stdout discarded,
/// stderr a pipe this test reads. The destructor SIGKILLs and reaps a child
/// that is still running.
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

  bool start(const char* binary) {
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
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
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
    char* const argv[] = {const_cast<char*>(binary), nullptr};
    const int spawned =
        posix_spawn(&pid_, binary, &actions, &attributes, argv, environ);
    posix_spawn_file_actions_destroy(&actions);
    posix_spawnattr_destroy(&attributes);
    close(in[0]);
    close(err[1]);
    if (spawned != 0) pid_ = -1;
    return spawned == 0;
  }

  pid_t pid() const noexcept { return pid_; }
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

}  // namespace
}  // namespace dmfb::serve
