// End-to-end checks of the dmfb_campaign binary that need its process
// boundary: what it leaves on disk and what it prints when a spec is
// rejected. Each case runs the binary in a fresh directory under the
// system temp dir, stdout discarded and stderr captured to a file.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

extern char** environ;

namespace dmfb::campaign {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

void write_file(const fs::path& path, const std::string& text) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << text;
}

/// A scratch directory removed with everything in it on destruction.
class ScratchDir {
 public:
  ScratchDir()
      : path_(fs::temp_directory_path() /
              ("dmfb_campaign_cli_" + std::to_string(getpid()) + "_" +
               ::testing::UnitTest::GetInstance()
                   ->current_test_info()
                   ->name())) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const fs::path& path() const noexcept { return path_; }

 private:
  fs::path path_;
};

struct Outcome {
  int exit_code = -1;  ///< -1 when the child did not exit normally
  std::string stderr_text;
};

/// Runs `dmfb_campaign <spec> --threads 1 --out <dir>` to completion.
Outcome run_campaign(const ScratchDir& dir, const fs::path& spec) {
  const std::string binary = DMFB_CAMPAIGN_BINARY;
  const std::string spec_arg = spec.string();
  const std::string out_arg = dir.path().string();
  const fs::path err_path = dir.path() / "stderr.txt";
  std::vector<char*> argv = {const_cast<char*>(binary.c_str()),
                             const_cast<char*>(spec_arg.c_str()),
                             const_cast<char*>("--threads"),
                             const_cast<char*>("1"),
                             const_cast<char*>("--out"),
                             const_cast<char*>(out_arg.c_str()), nullptr};
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, "/dev/null",
                                   O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO,
                                   err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                                  argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  Outcome outcome;
  if (spawned != 0) {
    ADD_FAILURE() << "posix_spawn " << binary << " failed: " << spawned;
    return outcome;
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(status)) outcome.exit_code = WEXITSTATUS(status);
  outcome.stderr_text = read_file(err_path);
  return outcome;
}

std::string multiplexed_spec(const std::string& tail) {
  return "name = x\n"
         "runs = 8\n"
         "design = multiplexed\n"
         "sink = csv\n" +
         tail;
}

// An m above the design's cell count used to truncate the previous
// artifact (the sinks opened first) and then fail a runner precondition.
TEST(CampaignCli, OverRangeFixedCountLeavesTheEarlierArtifactIntact) {
  const ScratchDir dir;
  const fs::path spec = dir.path() / "x.campaign";
  const fs::path csv = dir.path() / "x.csv";

  write_file(spec, multiplexed_spec("injector = fixed_count\nm = 0, 5\n"));
  const Outcome good = run_campaign(dir, spec);
  ASSERT_EQ(good.exit_code, 0) << good.stderr_text;
  const std::string artifact = read_file(csv);
  ASSERT_FALSE(artifact.empty());

  // The multiplexed chip has 343 cells: m = 343 is in range, 344 is not.
  write_file(spec,
             multiplexed_spec("injector = fixed_count\nm = 343, 344\n"));
  const Outcome rejected = run_campaign(dir, spec);
  EXPECT_EQ(rejected.exit_code, 1);
  EXPECT_NE(rejected.stderr_text.find(
                "fixed_count param m = 344 exceeds the design's cell count "
                "(343 cells on design multiplexed)"),
            std::string::npos)
      << rejected.stderr_text;
  EXPECT_EQ(rejected.stderr_text.find("precondition failed"),
            std::string::npos)
      << rejected.stderr_text;
  EXPECT_EQ(read_file(csv), artifact);

  // The same check covers a mixture's fixed_count component.
  write_file(spec, multiplexed_spec("injector = mixture\n"
                                    "components = bernoulli, fixed_count\n"
                                    "p = 0.9, 0.95\n"
                                    "m = 400\n"));
  const Outcome mixture = run_campaign(dir, spec);
  EXPECT_EQ(mixture.exit_code, 1);
  EXPECT_NE(mixture.stderr_text.find("fixed_count param m = 400 exceeds"),
            std::string::npos)
      << mixture.stderr_text;
  EXPECT_EQ(read_file(csv), artifact);
}

}  // namespace
}  // namespace dmfb::campaign
