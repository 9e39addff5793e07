// The svlc command line: the option table rejects a flag the command
// does not take, and every numeric option rejects a malformed number,
// both as usage errors (exit 2) rather than silently ignoring the flag or
// reading the number as 0.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/wait.h>
#include <unistd.h>

namespace {

struct CliRun {
    int status = -1;
    std::string output; // stdout + stderr
};

CliRun svlc(const std::string& args) {
    CliRun r;
    std::string cmd = std::string(SVLC_CLI) + " " + args + " 2>&1";
    std::FILE* p = ::popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.output.append(buf, n);
    int rc = ::pclose(p);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return r;
}

const std::string kFig4 = std::string(SVLC_HDL_DIR) + "/fig4_mode_switch.svlc";

void expect_usage_error(const std::string& args, const std::string& why) {
    CliRun r = svlc(args);
    EXPECT_EQ(r.status, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(why), std::string::npos) << args << "\n"
                                                     << r.output;
    EXPECT_NE(r.output.find("usage:"), std::string::npos) << args;
}

TEST(Cli, FlagTheCommandDoesNotTakeIsAUsageError) {
    expect_usage_error("check " + kFig4 + " --store /nonexistent",
                       "check: unknown option '--store'");
    expect_usage_error("check " + kFig4 + " --jobs 4",
                       "check: unknown option '--jobs'");
    expect_usage_error("sim " + kFig4 + " --solver cdcl",
                       "sim: unknown option '--solver'");
    expect_usage_error("hunt-corpus --seed 3",
                       "hunt-corpus: unknown option '--seed'");
    // `batch --warm` and the `prune` backend no longer exist; an unknown
    // backend's message names the ones that do.
    expect_usage_error("batch " + kFig4 + " --warm",
                       "batch: unknown option '--warm'");
    expect_usage_error("check " + kFig4 + " --solver prune",
                       "--solver: unknown backend 'prune' (expected one of: "
                       "enum, cdcl)");
    // Removed commands are unknown commands.
    expect_usage_error("coordinator --socket /tmp/x hdl/", "usage:");
    expect_usage_error("worker --connect /tmp/x", "usage:");
}

TEST(Cli, MalformedNumbersAreRejectedNotReadAsZero) {
    expect_usage_error("serve --socket /tmp/svlc-cli-test.sock --timeout-ms abc",
                       "--timeout-ms: bad value 'abc'");
    expect_usage_error("serve --socket /tmp/svlc-cli-test.sock --max-sessions 4x",
                       "--max-sessions: bad value '4x'");
    expect_usage_error("serve --socket /tmp/svlc-cli-test.sock --idle-timeout -1",
                       "--idle-timeout: bad value '-1'");
    expect_usage_error("client --socket /tmp/svlc-cli-test.sock --retry abc status",
                       "--retry: bad value 'abc'");
    expect_usage_error("client --socket /tmp/svlc-cli-test.sock --backoff '' status",
                       "--backoff: bad value ''");
    expect_usage_error("fuzz --seed abc", "--seed: bad value 'abc'");
    expect_usage_error("fuzz --count 10k", "--count: bad value '10k'");
    expect_usage_error("sim " + kFig4 + " --set rst=yes",
                       "--set: bad value 'yes'");
    expect_usage_error("hunt " + kFig4 + " --depth 0",
                       "--depth: must be positive");
}

TEST(Cli, AcceptedFlagsStillParse) {
    CliRun r = svlc("check " + kFig4 + " --solver cdcl --stats --classic");
    // Classic mode rejects the mode-switch design (exit 1), but the
    // command ran: no usage text.
    EXPECT_EQ(r.output.find("usage:"), std::string::npos) << r.output;
    EXPECT_TRUE(r.status == 0 || r.status == 1) << r.output;
    CliRun bad_solver = svlc("check " + kFig4 + " --solver fast");
    EXPECT_EQ(bad_solver.status, 2) << bad_solver.output;
    CliRun hex = svlc("batch " + kFig4 + " --jobs 0x1 --timeout-ms 600000");
    EXPECT_EQ(hex.status, 0) << hex.output;
}

TEST(Cli, TaintListsTenViolationsThenCountsTheRest) {
    // A secret input copied into a public register every cycle: one
    // violation per cycle, twelve in all.
    std::filesystem::path file =
        std::filesystem::temp_directory_path() /
        ("svlc-cli-taint-" + std::to_string(::getpid()) + ".svlc");
    std::ofstream(file) << R"(
lattice { level L; level H; flow L -> H; }
module m(input com [7:0] {H} s);
  reg seq [7:0] {L} r;
  always @(seq) begin
    r <= s;
  end
endmodule
)";
    CliRun r = svlc("taint " + file.string() + " --cycles 12");
    std::filesystem::remove(file);
    EXPECT_EQ(r.status, 1) << r.output;
    EXPECT_NE(r.output.find("12 violation(s)"), std::string::npos)
        << r.output;
    size_t listed = 0;
    for (size_t at = r.output.find("  cycle "); at != std::string::npos;
         at = r.output.find("  cycle ", at + 1))
        ++listed;
    EXPECT_EQ(listed, 10u) << r.output;
    EXPECT_NE(r.output.find("cycle 9: net 'r'"), std::string::npos)
        << r.output;
    EXPECT_NE(r.output.find("  ... and 2 more\n"), std::string::npos)
        << r.output;
}

} // namespace
