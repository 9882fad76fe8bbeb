#include "harness/exec/wire.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>
#include <utility>

#include "harness/report.hh"
#include "sim/logging.hh"

namespace gpump {
namespace harness {
namespace exec {

// ---------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------

namespace {

/** Recursive-descent parser over a string view of the input. */
class Parser
{
  public:
    explicit Parser(const std::string &text)
        : s_(text)
    {
    }

    JsonValue parse()
    {
        JsonValue v = value(0);
        skipWs();
        if (pos_ != s_.size())
            sim::fatal("JSON: trailing garbage at offset %zu", pos_);
        return v;
    }

  private:
    static constexpr int maxDepth = 64;

    const std::string &s_;
    std::size_t pos_ = 0;

    [[noreturn]] void bad(const char *what)
    {
        sim::fatal("JSON: %s at offset %zu", what, pos_);
    }

    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' ||
                s_[pos_] == '\n' || s_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= s_.size())
            bad("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            bad("unexpected character");
        ++pos_;
    }

    bool literal(const char *word)
    {
        std::size_t n = std::strlen(word);
        if (s_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    std::string string()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                bad("unterminated string");
            char c = s_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= s_.size())
                    bad("unterminated escape");
                char e = s_[pos_++];
                switch (e) {
                  case '"': out += '"'; break;
                  case '\\': out += '\\'; break;
                  case '/': out += '/'; break;
                  case 'b': out += '\b'; break;
                  case 'f': out += '\f'; break;
                  case 'n': out += '\n'; break;
                  case 'r': out += '\r'; break;
                  case 't': out += '\t'; break;
                  case 'u': {
                    if (pos_ + 4 > s_.size())
                        bad("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = s_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else
                            bad("bad \\u escape");
                    }
                    // The harness only ever \u-escapes control
                    // characters; emit the code point as UTF-8 for
                    // completeness.
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 |
                                                 ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default: bad("unknown escape");
                }
            } else if (static_cast<unsigned char>(c) < 0x20) {
                bad("raw control character in string");
            } else {
                out += c;
            }
        }
    }

    JsonValue number()
    {
        std::size_t start = pos_;
        if (peek() == '-')
            ++pos_;
        while (pos_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
                s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
                s_[pos_] == '+' || s_[pos_] == '-'))
            ++pos_;
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.text = s_.substr(start, pos_ - start);
        // Validate the token now: malformed numbers fail at parse time.
        char *end = nullptr;
        std::strtod(v.text.c_str(), &end);
        if (v.text.empty() || end != v.text.c_str() + v.text.size())
            bad("malformed number");
        return v;
    }

    JsonValue value(int depth)
    {
        if (depth > maxDepth)
            bad("nesting too deep");
        skipWs();
        char c = peek();
        JsonValue v;
        switch (c) {
          case '{': {
            ++pos_;
            v.type = JsonValue::Type::Object;
            skipWs();
            if (peek() == '}') {
                ++pos_;
                return v;
            }
            for (;;) {
                skipWs();
                std::string key = string();
                skipWs();
                expect(':');
                v.members.emplace_back(std::move(key),
                                       value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect('}');
                return v;
            }
          }
          case '[': {
            ++pos_;
            v.type = JsonValue::Type::Array;
            skipWs();
            if (peek() == ']') {
                ++pos_;
                return v;
            }
            for (;;) {
                v.items.push_back(value(depth + 1));
                skipWs();
                if (peek() == ',') {
                    ++pos_;
                    continue;
                }
                expect(']');
                return v;
            }
          }
          case '"':
            v.type = JsonValue::Type::String;
            v.text = string();
            return v;
          case 't':
            if (!literal("true"))
                bad("bad literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
          case 'f':
            if (!literal("false"))
                bad("bad literal");
            v.type = JsonValue::Type::Bool;
            v.boolean = false;
            return v;
          case 'n':
            if (!literal("null"))
                bad("bad literal");
            v.type = JsonValue::Type::Null;
            return v;
          default:
            return number();
        }
    }
};

} // namespace

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &m : members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

const JsonValue &
JsonValue::get(const std::string &key, const char *what) const
{
    const JsonValue *v = find(key);
    if (v == nullptr)
        sim::fatal("wire: missing field '%s' (%s)", key.c_str(), what);
    return *v;
}

std::int64_t
JsonValue::asInt64(const char *what) const
{
    if (type != Type::Number)
        sim::fatal("wire: field %s is not a number", what);
    char *end = nullptr;
    errno = 0;
    long long v = std::strtoll(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size())
        sim::fatal("wire: field %s is not an integer ('%s')", what,
                   text.c_str());
    // strtoll clamps an out-of-range token to the nearest bound; a
    // clamped value would not re-encode to what was read.
    if (errno == ERANGE)
        sim::fatal("wire: field %s is out of int64 range ('%s')", what,
                   text.c_str());
    return static_cast<std::int64_t>(v);
}

const std::string &
JsonValue::asString(const char *what) const
{
    if (type != Type::String)
        sim::fatal("wire: field %s is not a string", what);
    return text;
}

bool
JsonValue::asBool(const char *what) const
{
    if (type != Type::Bool)
        sim::fatal("wire: field %s is not a bool", what);
    return boolean;
}

JsonValue
parseJson(const std::string &text)
{
    return Parser(text).parse();
}

// ---------------------------------------------------------------------
// Exact doubles
// ---------------------------------------------------------------------

std::string
encodeHexDouble(double value)
{
    if (std::isnan(value))
        return "nan";
    if (std::isinf(value))
        return value > 0 ? "inf" : "-inf";
    return sim::strformat("%a", value);
}

double
parseHexDouble(const std::string &text, const char *what)
{
    // strtod accepts hexfloat, "nan", "inf" and "-inf" — exactly the
    // encodeHexDouble() vocabulary.
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (text.empty() || end != text.c_str() + text.size())
        sim::fatal("wire: field %s is not a hexfloat ('%s')", what,
                   text.c_str());
    return v;
}

// ---------------------------------------------------------------------
// RunResult codec
// ---------------------------------------------------------------------

namespace {

/** Format bump whenever the encoding changes shape: a cache entry
 *  from another version must read as a miss, not misdecode. */
constexpr std::int64_t wireVersion = 1;

/** The wire fields of one serving class, in wire order. */
template <class Class, class Visitor>
void
forEachClassField(Class &c, Visitor &v)
{
    v("name", c.name);
    v("requests", c.requests);
    v("completed", c.completed);
    v("dropped", c.dropped);
    v("misses", c.deadlineMisses);
    v("n", c.latency.n);
    v("mean", c.latency.mean);
    v("p50", c.latency.p50);
    v("p99", c.latency.p99);
    v("p999", c.latency.p999);
    v("max", c.latency.max);
    v("miss_rate", c.missRate);
    v("tput", c.throughputPerSec);
    v("goodput", c.goodputPerSec);
}

/** The wire fields of a RunResult, in wire order: the one list both
 *  encodeResult() and decodeResult() are derived from.  `serving` is
 *  visited before the fields it guards, so the decoder has set it by
 *  the time the guard reads it. */
template <class Result, class Visitor>
void
forEachField(Result &r, Visitor &v)
{
    v("index", r.index);
    v("tag", r.tag);
    v("policy", r.scheme.policy);
    v("mechanism", r.scheme.mechanism);
    v("transfer", r.scheme.transferPolicy);
    v("ntt", r.metrics.ntt);
    v("antt", r.metrics.antt);
    v("stp", r.metrics.stp);
    v("fairness", r.metrics.fairness);
    v("isolated_us", r.isolatedUs);
    v("turnaround_us", r.sys.meanTurnaroundUs);
    v("latency_us", r.sys.meanLatencyUs);
    v("dropped", r.sys.droppedRequests);
    // Per-process run records as [start, end, release] triples: the
    // full SystemResult survives the hop, not just its aggregates.
    v("runs", r.sys.runs);
    v("end_time", r.sys.endTime);
    v("events", r.sys.eventsExecuted);
    v("kernels", r.sys.kernelsCompleted);
    v("preemptions", r.sys.preemptions);
    v("ctx_bytes", r.sys.contextBytesSaved);
    v("max_ptbq", r.sys.maxPtbqDepth);
    v("wall_seconds", r.wallSeconds);
    v("serving", r.servingRun);
    if (r.servingRun) {
        v("classes", r.serving.classes);
        v("window_fairness", r.serving.windowFairness);
        v("window_us", r.serving.windowUs);
    }
}

template <class T>
using IfInteger = std::enable_if_t<std::is_integral<T>::value>;

/** Appends each visited field to one JSON object. */
class Encoder
{
  public:
    Encoder() : out_("{") {}

    template <class T>
    void operator()(const char *key, const T &value)
    {
        // Keys are table constants: nothing to escape.
        out_ += out_.back() == '{' ? "\"" : ",\"";
        out_ += key;
        out_ += "\":";
        put(value);
    }

    std::string finish()
    {
        out_ += '}';
        return std::move(out_);
    }

  private:
    std::string out_;

    void put(const std::string &s) { out_ += jsonQuote(s); }

    void put(double d)
    {
        out_ += '"';
        out_ += encodeHexDouble(d);
        out_ += '"';
    }

    template <class Int, class = IfInteger<Int>>
    void put(Int i) { out_ += std::to_string(i); }

    void put(bool b) { out_ += b ? "true" : "false"; }

    void put(const workload::RunRecord &rr)
    {
        out_ += '[';
        put(rr.start);
        out_ += ',';
        put(rr.end);
        out_ += ',';
        put(rr.release);
        out_ += ']';
    }

    void put(const serve::ClassMetrics &c)
    {
        out_ += '{';
        forEachClassField(c, *this);
        out_ += '}';
    }

    template <class T>
    void put(const std::vector<T> &values)
    {
        out_ += '[';
        for (std::size_t i = 0; i < values.size(); ++i) {
            if (i)
                out_ += ',';
            put(values[i]);
        }
        out_ += ']';
    }
};

/** Reads each visited field out of one parsed JSON object; raises
 *  fatal() on a missing field or a value of the wrong kind. */
class Decoder
{
  public:
    explicit Decoder(const JsonValue &object) : object_(object) {}

    template <class T>
    void operator()(const char *key, T &value)
    {
        get(object_.get(key, key), key, value);
    }

  private:
    const JsonValue &object_;

    static void get(const JsonValue &j, const char *what, std::string &s)
    {
        s = j.asString(what);
    }

    static void get(const JsonValue &j, const char *what, double &d)
    {
        d = parseHexDouble(j.asString(what), what);
    }

    template <class Int, class = IfInteger<Int>>
    static void get(const JsonValue &j, const char *what, Int &i)
    {
        std::int64_t v = j.asInt64(what);
        if (std::is_unsigned<Int>::value && v < 0)
            sim::fatal("wire: field %s is negative ('%s')", what,
                       j.text.c_str());
        i = static_cast<Int>(v);
    }

    static void get(const JsonValue &j, const char *what, bool &b)
    {
        b = j.asBool(what);
    }

    static void get(const JsonValue &j, const char *what,
                    workload::RunRecord &rr)
    {
        if (j.type != JsonValue::Type::Array || j.items.size() != 3)
            sim::fatal("wire: field %s entry is not a triple", what);
        get(j.items[0], what, rr.start);
        get(j.items[1], what, rr.end);
        get(j.items[2], what, rr.release);
    }

    static void get(const JsonValue &j, const char *what,
                    serve::ClassMetrics &c)
    {
        if (j.type != JsonValue::Type::Object)
            sim::fatal("wire: field %s entry is not an object", what);
        Decoder d(j);
        forEachClassField(c, d);
    }

    template <class T>
    static void get(const JsonValue &j, const char *what,
                    std::vector<T> &values)
    {
        if (j.type != JsonValue::Type::Array)
            sim::fatal("wire: field %s is not an array", what);
        values.resize(j.items.size());
        for (std::size_t i = 0; i < values.size(); ++i)
            get(j.items[i], what, values[i]);
    }
};

} // namespace

std::string
encodeResult(const RunResult &r)
{
    Encoder e;
    e("v", wireVersion);
    forEachField(r, e);
    return e.finish();
}

RunResult
decodeResult(const std::string &line)
{
    return decodeResult(parseJson(line));
}

RunResult
decodeResult(const JsonValue &v)
{
    if (v.type != JsonValue::Type::Object)
        sim::fatal("wire: result is not an object");
    Decoder d(v);
    std::int64_t version = 0;
    d("v", version);
    if (version != wireVersion)
        sim::fatal("wire: result version mismatch");
    RunResult r;
    forEachField(r, d);
    return r;
}

bool
tryDecodeResult(const std::string &line, RunResult &out)
{
    try {
        out = decodeResult(line);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

} // namespace exec
} // namespace harness
} // namespace gpump
