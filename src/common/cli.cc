#include "common/cli.hh"

#include "common/logging.hh"

namespace cmpcache
{

CliArgs::CliArgs(int argc, const char *const *argv,
                 bool allow_subcommand)
{
    int first = 1;
    if (allow_subcommand && argc > 1) {
        const std::string arg = argv[1];
        if (arg.rfind("--", 0) != 0
            && arg.find('=') == std::string::npos) {
            subcommand_ = arg;
            first = 2;
        }
    }
    for (int i = first; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) == 0) {
            const auto eq = arg.find('=');
            if (eq == std::string::npos) {
                options_[arg.substr(2)] = "true";
            } else {
                options_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
            }
        } else {
            positional_.push_back(std::move(arg));
        }
    }
}

bool
CliArgs::has(const std::string &key) const
{
    read_.insert(key);
    return options_.count(key) > 0;
}

std::vector<std::string>
CliArgs::unread() const
{
    std::vector<std::string> keys;
    for (const auto &kv : options_)
        if (read_.count(kv.first) == 0)
            keys.push_back(kv.first);
    return keys;
}

std::string
CliArgs::getString(const std::string &key, const std::string &def) const
{
    read_.insert(key);
    const auto it = options_.find(key);
    return it == options_.end() ? def : it->second;
}

std::int64_t
CliArgs::getInt(const std::string &key, std::int64_t def) const
{
    read_.insert(key);
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    try {
        return std::stoll(it->second);
    } catch (...) {
        cmp_fatal("option --", key, " expects an integer, got '",
                  it->second, "'");
    }
}

double
CliArgs::getDouble(const std::string &key, double def) const
{
    read_.insert(key);
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    try {
        return std::stod(it->second);
    } catch (...) {
        cmp_fatal("option --", key, " expects a number, got '",
                  it->second, "'");
    }
}

bool
CliArgs::getBool(const std::string &key, bool def) const
{
    read_.insert(key);
    const auto it = options_.find(key);
    if (it == options_.end())
        return def;
    const std::string &v = it->second;
    if (v == "true" || v == "1" || v == "yes" || v == "on")
        return true;
    if (v == "false" || v == "0" || v == "no" || v == "off")
        return false;
    cmp_fatal("option --", key, " expects a boolean, got '", v, "'");
}

} // namespace cmpcache
