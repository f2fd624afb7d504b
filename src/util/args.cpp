#include "args.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>

#include "common.hpp"
#include "parallel.hpp"

namespace olive {

Args::Args(int argc, char **argv, std::map<std::string, std::string> known)
    : values_(std::move(known))
{
    // Implicit --threads flag (see the file comment in args.hpp).
    const bool had_threads = values_.count("threads") != 0;
    if (!had_threads)
        values_.emplace("threads", "");
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        // erase() instead of self-assigning substr(): the latter trips
        // GCC 12's -Wrestrict false positive when inlined into drivers.
        arg.erase(0, 2);
        std::string name, value;
        bool bare = false;
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
            name.assign(arg, 0, eq);
            value.assign(arg, eq + 1, std::string::npos);
        } else {
            name = std::move(arg);
            if (i + 1 < argc &&
                std::string(argv[i + 1]).rfind("--", 0) != 0) {
                value = argv[++i];
            } else {
                value.push_back('1'); // bare boolean flag
                bare = true;
            }
        }
        if (name == "help") {
            std::fputs(usageText(argv[0]).c_str(), stdout);
            std::exit(0); // NOLINT(concurrency-mt-unsafe)
        }
        auto it = values_.find(name);
        if (it == values_.end()) {
            // Report the full flag set so a typo is a one-round fix
            // (std::map keeps the list sorted).
            std::string known_flags;
            for (const auto &kv : values_) {
                if (!known_flags.empty())
                    known_flags += ", ";
                known_flags += "--" + kv.first;
            }
            OLIVE_FATAL("unknown flag --" + name +
                        " (known flags: " + known_flags + ")");
        }
        // The implicit --threads is numeric-only: the bare-boolean "1"
        // (or an empty "--threads=") would silently pin the pool serial
        // where the user almost certainly forgot the count.
        if (!had_threads && name == "threads" && (bare || value.empty()))
            OLIVE_FATAL("--threads requires a value (0 = default)");
        it->second = value;
    }

    if (!had_threads) {
        const std::string &t = values_.at("threads");
        if (!t.empty())
            par::setThreadCount(
                par::parseThreadCount(t.c_str(), "--threads"));
    }
}

std::string
Args::usageText(const std::string &prog) const
{
    // values_ is a std::map, so the per-flag lines come out sorted.
    std::string text = "usage: " + prog +
                       " [--flag value | --flag=value | --flag]\n\n";
    size_t width = sizeof("help") - 1;
    for (const auto &kv : values_)
        width = std::max(width, kv.first.size());
    const auto line = [&](const std::string &name,
                          const std::string &desc) {
        text += "  --" + name;
        text.append(width - name.size() + 2, ' ');
        text += desc + "\n";
    };
    for (const auto &kv : values_) {
        if (kv.first == "threads") {
            line(kv.first, "parallel pool size (1 = serial, 0 = "
                           "ambient default)");
        } else {
            line(kv.first, "(default \"" + kv.second + "\")");
        }
    }
    line("help", "print this usage text and exit");
    return text;
}

const std::string &
Args::get(const std::string &name) const
{
    auto it = values_.find(name);
    if (it == values_.end())
        OLIVE_FATAL("flag --" + name + " was not declared");
    return it->second;
}

long
Args::getInt(const std::string &name) const
{
    return std::stol(get(name));
}

size_t
Args::getSize(const std::string &name, size_t min) const
{
    const std::string &v = get(name);
    size_t n = 0;
    const char *end = v.data() + v.size();
    // from_chars into an unsigned type rejects a leading '-' outright.
    const auto [stop, ec] = std::from_chars(v.data(), end, n);
    if (ec != std::errc() || stop != end || n < min)
        OLIVE_FATAL("--" + name + " takes an integer >= " +
                    std::to_string(min) + " (got \"" + v + "\")");
    return n;
}

double
Args::getDouble(const std::string &name) const
{
    return std::stod(get(name));
}

bool
Args::getBool(const std::string &name) const
{
    const std::string &v = get(name);
    return v == "1" || v == "true" || v == "yes";
}

} // namespace olive
