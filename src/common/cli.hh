/**
 * @file
 * Minimal --key=value command-line option parsing for the example and
 * benchmark drivers.
 */

#ifndef CMPCACHE_COMMON_CLI_HH
#define CMPCACHE_COMMON_CLI_HH

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace cmpcache
{

/**
 * Parses "--key=value" / "--flag" style arguments. Unknown positional
 * arguments are collected in order.
 *
 * Every has()/get*() call marks its key as read, so a driver that has
 * read all the options it understands can reject the rest through
 * unread() instead of silently ignoring a typo.
 *
 * Multi-tool drivers (e.g. the `cmpcache` binary) can additionally
 * treat the first argument as a subcommand: when @p allow_subcommand
 * is set and argv[1] is a bare word (no "--" prefix, no '='), it is
 * consumed as the subcommand instead of a positional.
 */
class CliArgs
{
  public:
    CliArgs(int argc, const char *const *argv,
            bool allow_subcommand = false);

    /** Subcommand name; empty when none was given/allowed. */
    const std::string &subcommand() const { return subcommand_; }

    bool has(const std::string &key) const;

    std::string getString(const std::string &key,
                          const std::string &def) const;
    std::int64_t getInt(const std::string &key, std::int64_t def) const;
    double getDouble(const std::string &key, double def) const;
    bool getBool(const std::string &key, bool def) const;

    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** Options given on the command line that no has()/get*() call
     * has read yet, in sorted order. */
    std::vector<std::string> unread() const;

    /** Environment-variable integer override helper. */
    static std::int64_t envInt(const char *name, std::int64_t def);

  private:
    std::string subcommand_;
    std::map<std::string, std::string> options_;
    std::vector<std::string> positional_;
    /** Keys queried so far (see unread()). */
    mutable std::set<std::string> read_;
};

} // namespace cmpcache

#endif // CMPCACHE_COMMON_CLI_HH
