/**
 * @file
 * Minimal command-line flag parser for the example programs.
 *
 * Supports "--name value" and "--name=value" forms plus boolean
 * "--flag".  Unknown flags are a fatal (user) error.
 *
 * Every program also implicitly accepts --help, which prints a usage
 * text generated from the registered flag set (name plus default, one
 * line per flag — see usageText()) to stdout and exits 0.  Nothing to
 * wire per program: any main() that constructs an Args gets it.
 *
 * Every program implicitly accepts --threads N, which resizes the
 * global parallel pool (util/parallel) before the workload runs: N = 1
 * forces serial, N = 0 restores the ambient default (OLIVE_THREADS if
 * set, else hardware concurrency).  A positive N overrides the
 * OLIVE_THREADS environment variable.  The flag never changes results —
 * the engine's deterministic partitioning keeps outputs bit-identical
 * at every thread count.
 */

#ifndef OLIVE_UTIL_ARGS_HPP
#define OLIVE_UTIL_ARGS_HPP

#include <map>
#include <string>
#include <vector>

namespace olive {

/** Parsed command-line arguments. */
class Args
{
  public:
    /**
     * Parse argv.  @p known maps flag names (without "--") to a default
     * value; flags absent from @p known trigger fatal().
     */
    Args(int argc, char **argv,
         std::map<std::string, std::string> known);

    /** String value of @p name (default if not given). */
    const std::string &get(const std::string &name) const;

    /** Integer value of @p name. */
    long getInt(const std::string &name) const;

    /**
     * Non-negative count value of @p name: a decimal integer >= @p min.
     * Anything else (a negative number, trailing junk, a value past
     * SIZE_MAX) is a fatal user error naming the flag and its bound,
     * so "-1" can never wrap to SIZE_MAX.
     */
    size_t getSize(const std::string &name, size_t min) const;

    /** Double value of @p name. */
    double getDouble(const std::string &name) const;

    /** Boolean value: "1", "true", "yes" are true. */
    bool getBool(const std::string &name) const;

    /** Positional (non-flag) arguments in order. */
    const std::vector<std::string> &positional() const { return positional_; }

    /**
     * The --help text: "usage: <prog> ..." plus one line per
     * registered flag with its default value, sorted by name (the
     * implicit --help and --threads lines carry fixed descriptions).
     * Exposed so the tests can assert the generated text without
     * spawning a process.
     */
    std::string usageText(const std::string &prog) const;

  private:
    std::map<std::string, std::string> values_;
    std::vector<std::string> positional_;
};

} // namespace olive

#endif // OLIVE_UTIL_ARGS_HPP
