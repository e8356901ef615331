/**
 * @file
 * Tests for the config-key descriptor table (threads/config_keys.hh)
 * driven row by row: names are unique and exact, every row refuses a
 * bad value with the shared message and touches nothing, count rows
 * are bounded by their field's width, and the profile.* rows bypass
 * the scheduler config they are handed.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "threads/config_keys.hh"
#include "threads/scheduler.hh"

namespace
{

using lsched::threads::applyConfigKey;
using lsched::threads::configKeys;
using lsched::threads::configKeyValue;
using lsched::threads::SchedulerConfig;

/** Every key's current value, in configKeys() order. */
std::vector<std::string>
snapshot(const SchedulerConfig &config)
{
    std::vector<std::string> values;
    for (const std::string &key : configKeys()) {
        std::string value;
        EXPECT_TRUE(configKeyValue(config, key, &value)) << key;
        values.push_back(value);
    }
    return values;
}

TEST(ConfigKeyTable, NamesAreUniqueLowerSnakeCase)
{
    std::set<std::string> seen;
    for (const std::string &key : configKeys()) {
        EXPECT_TRUE(seen.insert(key).second) << key << " listed twice";
        ASSERT_FALSE(key.empty());
        for (const char ch : key) {
            EXPECT_TRUE((ch >= 'a' && ch <= 'z') ||
                        (ch >= '0' && ch <= '9') || ch == '_' ||
                        ch == '.')
                << key;
        }
    }
    // Matching is exact: no case folding, no trimming.
    SchedulerConfig config;
    std::string value;
    EXPECT_FALSE(configKeyValue(config, "DIMS", &value));
    EXPECT_FALSE(configKeyValue(config, " dims", &value));
    EXPECT_FALSE(applyConfigKey(config, "Dims", "2", nullptr));
    EXPECT_EQ(config.dims, SchedulerConfig{}.dims);
}

TEST(ConfigKeyTable, BadValueLeavesTheWholeTableUntouched)
{
    // Only the free-text rows take any string; every other row must
    // refuse a token none of its parsers accept, say which key and
    // value it refused and what it wants, and change no key at all.
    const std::set<std::string> freeText = {"profile.output",
                                            "profile.om_output"};
    const std::string bad = "not-a-value";
    SchedulerConfig config;
    const std::vector<std::string> before = snapshot(config);
    unsigned refused = 0;
    for (const std::string &key : configKeys()) {
        if (freeText.count(key))
            continue;
        std::string error;
        EXPECT_FALSE(applyConfigKey(config, key, bad, &error)) << key;
        const std::string prefix =
            "config key '" + key + "': bad value '" + bad + "' (want ";
        EXPECT_EQ(error.rfind(prefix, 0), 0u) << error;
        EXPECT_GT(error.size(), prefix.size() + 1)
            << key << ": empty want text";
        EXPECT_EQ(error.back(), ')') << error;
        EXPECT_EQ(snapshot(config), before) << key;
        ++refused;
    }
    EXPECT_EQ(refused, configKeys().size() - freeText.size());
    // A null error sink is allowed and changes nothing either.
    EXPECT_FALSE(applyConfigKey(config, "dims", bad, nullptr));
    EXPECT_EQ(snapshot(config), before);
}

TEST(ConfigKeyTable, CountBoundsFollowTheFieldWidth)
{
    // A count row's ceiling is its field's maximum unless the row
    // names a tighter one; nothing wraps or truncates on the way in.
    const struct
    {
        const char *key;
        const char *max;
        const char *overflow;
    } cases[] = {
        {"watchdog_millis", "4294967295", "4294967296"},
        {"deadline_millis", "4294967295", "4294967296"},
        {"group_capacity", "4294967295", "4294967296"},
        {"stream_admit_retries", "4294967295", "4294967296"},
        {"cache_bytes", "18446744073709551615", "18446744073709551616"},
        {"stream_max_pending", "18446744073709551615",
         "18446744073709551616"},
        {"dims", "8", "9"},
    };
    for (const auto &c : cases) {
        SchedulerConfig config;
        std::string error;
        ASSERT_TRUE(applyConfigKey(config, c.key, c.max, &error))
            << c.key << ": " << error;
        std::string value;
        ASSERT_TRUE(configKeyValue(config, c.key, &value));
        EXPECT_EQ(value, c.max) << c.key;
        EXPECT_FALSE(applyConfigKey(config, c.key, c.overflow, &error))
            << c.key;
        EXPECT_FALSE(applyConfigKey(config, c.key, "-1", &error))
            << c.key;
        ASSERT_TRUE(configKeyValue(config, c.key, &value));
        EXPECT_EQ(value, c.max) << c.key << " changed on a refusal";
    }
    // Rows with a floor of one refuse zero.
    for (const char *key : {"dims", "group_capacity", "recover_epochs",
                            "adapt.epochs", "adapt.min_block"}) {
        SchedulerConfig config;
        EXPECT_FALSE(applyConfigKey(config, key, "0", nullptr)) << key;
        EXPECT_TRUE(applyConfigKey(config, key, "1", nullptr)) << key;
    }
}

TEST(ConfigKeyTable, ProfileKeysBypassTheSchedulerConfig)
{
    // profile.* rows write the process-global profiler: a value set
    // through one config reads back through any other, and no
    // scheduler key moves. Scheduler rows stay per-config.
    SchedulerConfig a;
    SchedulerConfig b;
    std::string ring;
    ASSERT_TRUE(configKeyValue(a, "profile.ring", &ring));
    const std::string other = ring == "7" ? "9" : "7";
    const std::vector<std::string> before = snapshot(a);
    std::string error;
    ASSERT_TRUE(applyConfigKey(a, "profile.ring", other, &error))
        << error;
    std::string value;
    ASSERT_TRUE(configKeyValue(b, "profile.ring", &value));
    EXPECT_EQ(value, other);
    const std::vector<std::string> after = snapshot(a);
    const std::vector<std::string> &keys = configKeys();
    for (std::size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] == "profile.ring")
            EXPECT_EQ(after[i], other);
        else
            EXPECT_EQ(after[i], before[i]) << keys[i];
    }
    ASSERT_TRUE(applyConfigKey(b, "profile.ring", ring, &error))
        << error;
    ASSERT_TRUE(configKeyValue(a, "profile.ring", &value));
    EXPECT_EQ(value, ring);

    ASSERT_TRUE(applyConfigKey(a, "dims", "2", &error)) << error;
    ASSERT_TRUE(configKeyValue(b, "dims", &value));
    EXPECT_EQ(value, std::to_string(SchedulerConfig{}.dims));
}

} // namespace
