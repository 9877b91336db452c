#include "util/string_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

#include "util/logging.h"

namespace snip {

std::vector<std::string>
split(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    for (size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == sep) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::string
trim(const std::string &s)
{
    size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

std::string
strformat(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list copy;
    va_copy(copy, args);
    int n = std::vsnprintf(nullptr, 0, fmt, copy);
    va_end(copy);
    std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
    if (n > 0)
        std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    va_end(args);
    return out;
}

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.size() >= prefix.size() &&
           s.compare(0, prefix.size(), prefix) == 0;
}

ArgParser::ArgParser(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string tok = argv[i];
        if (startsWith(tok, "--")) {
            std::string body = tok.substr(2);
            size_t eq = body.find('=');
            if (eq == std::string::npos)
                kv_.emplace_back(body, "");
            else
                kv_.emplace_back(body.substr(0, eq), body.substr(eq + 1));
        } else {
            pos_.push_back(tok);
        }
    }
}

std::string
ArgParser::get(const std::string &key, const std::string &def) const
{
    for (const auto &[k, v] : kv_) {
        if (k == key)
            return v;
    }
    return def;
}

int64_t
ArgParser::getInt(const std::string &key, int64_t def) const
{
    std::string v = get(key, "");
    if (v.empty())
        return def;
    char *end = nullptr;
    errno = 0;
    long long n = std::strtoll(v.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        fatal("--", key, "=", v, ": not an integer in range");
    return n;
}

double
ArgParser::getDouble(const std::string &key, double def) const
{
    std::string v = get(key, "");
    if (v.empty())
        return def;
    char *end = nullptr;
    errno = 0;
    double d = std::strtod(v.c_str(), &end);
    if (*end != '\0' || errno == ERANGE)
        fatal("--", key, "=", v, ": not a number in range");
    return d;
}

bool
ArgParser::has(const std::string &key) const
{
    for (const auto &[k, v] : kv_) {
        (void)v;
        if (k == key)
            return true;
    }
    return false;
}

} // namespace snip
