/**
 * @file
 * Small string helpers shared by the CLI front-ends and formatters.
 */
#ifndef SNIP_UTIL_STRING_UTIL_H
#define SNIP_UTIL_STRING_UTIL_H

#include <string>
#include <vector>

namespace snip {

/** Split @p s on @p sep; empty fields are preserved. */
std::vector<std::string> split(const std::string &s, char sep);

/** Strip leading/trailing ASCII whitespace. */
std::string trim(const std::string &s);

/** printf-style formatting into a std::string. */
std::string strformat(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** True if @p s begins with @p prefix. */
bool startsWith(const std::string &s, const std::string &prefix);

/**
 * Minimal command-line flag parser for the bench/example binaries.
 *
 * Accepts "--key=value" and "--flag" tokens; everything else is kept as
 * a positional argument.
 */
class ArgParser
{
  public:
    ArgParser(int argc, char **argv);

    /** Value for --key=value, or @p def if absent. */
    std::string get(const std::string &key, const std::string &def) const;

    /**
     * Integer value for --key=value, or @p def. fatal() when the value
     * is not entirely a base-10 integer or is out of range.
     */
    int64_t getInt(const std::string &key, int64_t def) const;

    /**
     * Double value for --key=value, or @p def. fatal() when the value
     * is not entirely a number or is out of range.
     */
    double getDouble(const std::string &key, double def) const;

    /** True if --key or --key=... was present. */
    bool has(const std::string &key) const;

    /** Positional (non --) arguments in order. */
    const std::vector<std::string> &positional() const { return pos_; }

  private:
    std::vector<std::pair<std::string, std::string>> kv_;
    std::vector<std::string> pos_;
};

} // namespace snip

#endif // SNIP_UTIL_STRING_UTIL_H
