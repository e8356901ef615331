/**
 * @file
 * Drift checks between the docs and the code: README's config-key
 * table (`| Key | Value |`) against configKeys(), its
 * scheduler-metrics table (`| Metric | th_stats_t field | Meaning |`)
 * against statFields(), and DESIGN.md's §5 module map against the
 * files under src/. Each must list every name exactly once and
 * nothing else.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "threads/config_keys.hh"
#include "threads/stat_fields.hh"

namespace
{

/** The cells of each row of the table whose header line starts with
 *  @p header, trimmed of surrounding spaces. */
std::vector<std::vector<std::string>>
readmeTable(const std::string &path, const std::string &header)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::vector<std::vector<std::string>> rows;
    std::string line;
    bool inTable = false;
    while (std::getline(in, line)) {
        if (line.rfind(header, 0) == 0) {
            inTable = true;
            continue;
        }
        if (!inTable)
            continue;
        if (line.rfind("|", 0) != 0)
            break; // the table ends at its first non-row line
        if (line.rfind("|---", 0) == 0)
            continue;
        std::vector<std::string> cells;
        for (std::size_t open = 0, close;
             (close = line.find('|', open + 1)) != std::string::npos;
             open = close) {
            std::string cell = line.substr(open + 1, close - open - 1);
            cell.erase(0, cell.find_first_not_of(' '));
            cell.erase(cell.find_last_not_of(' ') + 1);
            cells.push_back(cell);
        }
        rows.push_back(cells);
    }
    EXPECT_TRUE(inTable) << "no `" << header << "` table in " << path;
    return rows;
}

/** The backticked names in @p cell. */
std::vector<std::string>
backticked(const std::string &cell)
{
    std::vector<std::string> names;
    for (std::size_t open = cell.find('`'); open != std::string::npos;) {
        const std::size_t close = cell.find('`', open + 1);
        if (close == std::string::npos)
            break;
        names.push_back(cell.substr(open + 1, close - open - 1));
        open = cell.find('`', close + 1);
    }
    return names;
}

TEST(ReadmeConfigKeys, TableListsEveryKeyExactlyOnce)
{
    std::map<std::string, int> documented;
    for (const auto &row : readmeTable(LSCHED_README, "| Key | Value |"))
        for (const std::string &key : backticked(row.at(0)))
            ++documented[key];
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

TEST(ReadmeMetrics, TableListsEveryStatisticExactlyOnce)
{
    // name -> (times listed, whether a th_stats_t field is named)
    std::map<std::string, std::pair<int, bool>> documented;
    for (const auto &row : readmeTable(
             LSCHED_README, "| Metric | `th_stats_t` field | Meaning |")) {
        ASSERT_EQ(row.size(), 3u) << row.at(0);
        for (const std::string &name : backticked(row[0])) {
            auto &entry = documented[name];
            ++entry.first;
            entry.second = row[1] != "—";
        }
    }
    for (const lsched::threads::StatField &field :
         lsched::threads::statFields()) {
        const auto it = documented.find(field.name);
        if (it == documented.end()) {
            ADD_FAILURE() << "README metrics table is missing '"
                          << field.name << "'";
            continue;
        }
        EXPECT_EQ(it->second.first, 1)
            << "README metrics table lists '" << field.name << "' "
            << it->second.first << " times";
        EXPECT_EQ(it->second.second, field.fill != nullptr)
            << "README metrics table: '" << field.name << "' "
            << (field.fill ? "is" : "is not")
            << " a th_stats_t field";
        documented.erase(it);
    }
    for (const auto &[name, entry] : documented) {
        ADD_FAILURE() << "README metrics table lists '" << name
                      << "', which is not a scheduler statistic";
    }
}

/**
 * The files DESIGN.md's §5 module map lists under `src/`, as
 * "module/file" with `name.{hh,cc}` expanded, each with the number of
 * times it is listed.
 */
std::map<std::string, int>
designModuleMap(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in) << "cannot open " << path;
    std::map<std::string, int> listed;
    bool inSection = false;
    bool inSrc = false;
    std::string module;
    for (std::string line; std::getline(in, line);) {
        if (line.rfind("## ", 0) == 0) {
            inSection = line.rfind("## 5. Module map", 0) == 0;
            continue;
        }
        if (!inSection)
            continue;
        if (line == "src/") {
            inSrc = true;
            continue;
        }
        if (!inSrc)
            continue;
        if (line.empty() || line[0] != ' ')
            break; // the src/ tree ends at the next top-level entry
        std::istringstream words(line);
        for (std::string word; words >> word;) {
            if (word.back() == '/') {
                module = word;
                continue;
            }
            const std::size_t brace = word.find(".{");
            if (brace == std::string::npos) {
                ++listed[module + word];
                continue;
            }
            std::istringstream exts(
                word.substr(brace + 2, word.size() - brace - 3));
            for (std::string ext; std::getline(exts, ext, ',');)
                ++listed[module + word.substr(0, brace + 1) + ext];
        }
    }
    EXPECT_TRUE(inSrc) << "no src/ tree under §5 of " << path;
    return listed;
}

TEST(DesignModuleMap, ListsEverySourceFileExactlyOnce)
{
    namespace fs = std::filesystem;
    std::map<std::string, int> listed = designModuleMap(LSCHED_DESIGN);
    for (const fs::directory_entry &dir :
         fs::directory_iterator(LSCHED_SRC_DIR)) {
        if (!dir.is_directory())
            continue;
        for (const fs::directory_entry &file :
             fs::directory_iterator(dir.path())) {
            const std::string ext = file.path().extension().string();
            if (ext != ".hh" && ext != ".cc")
                continue;
            const std::string name = dir.path().filename().string() +
                                     "/" +
                                     file.path().filename().string();
            const auto it = listed.find(name);
            if (it == listed.end()) {
                ADD_FAILURE() << "DESIGN.md module map is missing src/"
                              << name;
                continue;
            }
            EXPECT_EQ(it->second, 1)
                << "DESIGN.md module map lists src/" << name << " "
                << it->second << " times";
            listed.erase(it);
        }
    }
    for (const auto &[name, count] : listed) {
        ADD_FAILURE() << "DESIGN.md module map lists src/" << name
                      << ", which does not exist";
    }
}

} // namespace
