/** @file Unit tests for support/cli.hh. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "support/cli.hh"
#include "threads/scheduler.hh"
#include "threads/tour.hh"

namespace
{

using lsched::Cli;

Cli
makeCli()
{
    Cli cli("prog", "test program");
    cli.addInt("n", 64, "problem size");
    cli.addDouble("theta", 0.5, "opening angle");
    cli.addString("machine", "r8000", "machine model");
    cli.addFlag("full", "paper-scale run");
    return cli;
}

TEST(Cli, DefaultsApply)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog"};
    cli.parse(1, argv);
    EXPECT_EQ(cli.getInt("n"), 64);
    EXPECT_DOUBLE_EQ(cli.getDouble("theta"), 0.5);
    EXPECT_EQ(cli.getString("machine"), "r8000");
    EXPECT_FALSE(cli.getFlag("full"));
}

TEST(Cli, EqualsSyntax)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--n=128", "--theta=0.9",
                          "--machine=r10000", "--full"};
    cli.parse(5, argv);
    EXPECT_EQ(cli.getInt("n"), 128);
    EXPECT_DOUBLE_EQ(cli.getDouble("theta"), 0.9);
    EXPECT_EQ(cli.getString("machine"), "r10000");
    EXPECT_TRUE(cli.getFlag("full"));
}

TEST(Cli, SpaceSeparatedValue)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--n", "256"};
    cli.parse(3, argv);
    EXPECT_EQ(cli.getInt("n"), 256);
}

TEST(Cli, HexIntegerAccepted)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--n=0x40"};
    cli.parse(2, argv);
    EXPECT_EQ(cli.getInt("n"), 64);
}

TEST(Cli, HelpTextMentionsAllOptions)
{
    Cli cli = makeCli();
    const std::string help = cli.helpText();
    EXPECT_NE(help.find("--n"), std::string::npos);
    EXPECT_NE(help.find("--theta"), std::string::npos);
    EXPECT_NE(help.find("--machine"), std::string::npos);
    EXPECT_NE(help.find("--full"), std::string::npos);
    EXPECT_NE(help.find("--help"), std::string::npos);
}

std::string g_hookPlacement, g_hookBackend, g_hookSched;

void
captureSched(const std::string &placement, const std::string &backend,
             const std::string &sched)
{
    g_hookPlacement = placement;
    g_hookBackend = backend;
    g_hookSched = sched;
}

TEST(Cli, SchedFlagsForwardToTheHook)
{
    // Capture-and-restore: leave the scheduler library's real hook in
    // place for the rest of the binary.
    const lsched::CliSchedHook previous =
        lsched::setCliSchedHook(&captureSched);
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--placement=roundrobin", "--sched",
                          "on_error=continue,stream_max_pending=4096"};
    cli.parse(4, argv);
    lsched::setCliSchedHook(previous);
    EXPECT_EQ(g_hookPlacement, "roundrobin");
    EXPECT_EQ(g_hookBackend, "");
    EXPECT_EQ(g_hookSched, "on_error=continue,stream_max_pending=4096");
}

using CliDeathTest = ::testing::Test;

TEST(CliDeathTest, UnknownOptionIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--bogus=1"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(CliDeathTest, MalformedIntIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--n=abc"};
    cli.parse(2, argv);
    EXPECT_EXIT((void)cli.getInt("n"), ::testing::ExitedWithCode(1),
                "not an integer");
}

TEST(CliDeathTest, MissingValueIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--n"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "needs a value");
}

TEST(CliDeathTest, PositionalArgumentIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "stray"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "positional");
}

TEST(CliDeathTest, FlagWithValueIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--full=1"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "takes no value");
}

// The --sched end-to-end checks run in the EXPECT_EXIT child so the
// process-global override list never leaks into other tests.

[[noreturn]] void
parseSchedAndExitZeroIfApplied()
{
    Cli cli("prog", "t");
    const char *argv[] = {"prog", "--sched",
                          "on_error=continue,stream_seal_threshold=77"};
    cli.parse(3, argv);
    lsched::threads::LocalityScheduler s;
    const bool applied =
        s.config().onError ==
            lsched::threads::ErrorPolicy::ContinueAndCollect &&
        s.config().streamSealThreshold == 77;
    std::exit(applied ? 0 : 7);
}

TEST(CliDeathTest, SchedOverridesReachNewSchedulers)
{
    EXPECT_EXIT(parseSchedAndExitZeroIfApplied(),
                ::testing::ExitedWithCode(0), "");
}

TEST(CliDeathTest, SchedUnknownKeyIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--sched=bogus_knob=1"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "unknown config key");
}

TEST(CliDeathTest, SchedBadValueIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--sched=on_error=sideways"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "bad value");
}

TEST(CliDeathTest, SchedPairWithoutEqualsIsFatal)
{
    Cli cli = makeCli();
    const char *argv[] = {"prog", "--sched=snake"};
    EXPECT_EXIT(cli.parse(2, argv), ::testing::ExitedWithCode(1),
                "expected key=value");
}

} // namespace
