/**
 * @file
 * Drift check between README's config-key table (`| Key | Value |`)
 * and the code's descriptor table (configKeys()): the README must list
 * every key exactly once and nothing else.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <string>

#include "threads/config_keys.hh"

namespace
{

/**
 * Backticked names in the first cell of each row of the table headed
 * `| Key | Value |`, with their occurrence counts.
 */
std::map<std::string, int>
readmeKeys(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::map<std::string, int> keys;
    std::string line;
    bool inTable = false;
    while (std::getline(in, line)) {
        if (line.rfind("| Key | Value |", 0) == 0) {
            inTable = true;
            continue;
        }
        if (!inTable)
            continue;
        if (line.rfind("|", 0) != 0)
            break; // the table ends at its first non-row line
        if (line.rfind("|---", 0) == 0)
            continue;
        const std::size_t cellEnd = line.find('|', 1);
        const std::string cell = line.substr(1, cellEnd - 1);
        for (std::size_t open = cell.find('`');
             open != std::string::npos;) {
            const std::size_t close = cell.find('`', open + 1);
            if (close == std::string::npos)
                break;
            ++keys[cell.substr(open + 1, close - open - 1)];
            open = cell.find('`', close + 1);
        }
    }
    EXPECT_TRUE(inTable) << "no `| Key | Value |` table in " << path;
    return keys;
}

TEST(ReadmeConfigKeys, TableListsEveryKeyExactlyOnce)
{
    std::map<std::string, int> documented = readmeKeys(LSCHED_README);
    for (const std::string &key : lsched::threads::configKeys()) {
        const auto it = documented.find(key);
        if (it == documented.end()) {
            ADD_FAILURE() << "README key table is missing '" << key
                          << "'";
            continue;
        }
        EXPECT_EQ(it->second, 1)
            << "README key table lists '" << key << "' "
            << it->second << " times";
        documented.erase(it);
    }
    for (const auto &[key, count] : documented) {
        ADD_FAILURE() << "README key table lists '" << key
                      << "', which is not a config key";
    }
}

} // namespace
