/**
 * @file
 * Metrics registry implementation and the BENCH_perf.json
 * serializer/parser. The JSON dialect is the minimal subset the
 * schema needs (objects, arrays, strings, numbers); doubles are
 * written shortest-round-trip (std::to_chars) so a
 * serialize-parse cycle is bit-exact.
 */

#include "util/metrics.h"

#include <atomic>
#include <charconv>
#include <cstdlib>
#include <system_error>

#include "util/error.h"

namespace emstress {
namespace metrics {

namespace {

bool
readEnabledFromEnv()
{
    // Observability gate only: toggling it never changes any
    // simulated result (tests/test_ga.cc pins bit-identity).
    const char *env = std::getenv("EMSTRESS_METRICS"); // lint: env-config
    return env == nullptr || std::string_view(env) != "0";
}

std::atomic<bool> &
enabledFlag()
{
    static std::atomic<bool> flag(readEnabledFromEnv());
    return flag;
}

} // namespace

bool
enabled()
{
    return enabledFlag().load(std::memory_order_relaxed);
}

void
setEnabled(bool on)
{
    enabledFlag().store(on, std::memory_order_relaxed);
}

Registry &
Registry::instance()
{
    static Registry registry;
    return registry;
}

void
Registry::add(std::string_view counter, std::uint64_t delta)
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = counters_.find(counter);
    if (it == counters_.end())
        counters_.emplace(std::string(counter), delta);
    else
        it->second += delta;
}

void
Registry::setGauge(std::string_view name, double value)
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = gauges_.find(name);
    if (it == gauges_.end())
        gauges_.emplace(std::string(name), value);
    else
        it->second = value;
}

void
Registry::recordPhase(std::string_view name, double wall_s,
                      double cpu_s)
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = phases_.find(name);
    if (it == phases_.end())
        it = phases_.emplace(std::string(name), PhaseStats{}).first;
    it->second.wall_s += wall_s;
    it->second.cpu_s += cpu_s;
    ++it->second.count;
}

void
Registry::recordLatency(std::string_view name, double seconds)
{
    if (!enabled())
        return;
    const std::lock_guard<std::mutex> lock(mutex_);
    auto it = latencies_.find(name);
    if (it == latencies_.end()) {
        it = latencies_.emplace(std::string(name),
                                HistogramSnapshot{})
                 .first;
        it->second.buckets.assign(LatencyBuckets::kBuckets, 0);
    }
    ++it->second.count;
    it->second.total_s += seconds;
    ++it->second.buckets[LatencyBuckets::bucketFor(seconds)];
}

MetricsSnapshot
Registry::snapshot() const
{
    const std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.insert(counters_.begin(), counters_.end());
    snap.gauges.insert(gauges_.begin(), gauges_.end());
    snap.phases.insert(phases_.begin(), phases_.end());
    snap.latencies.insert(latencies_.begin(), latencies_.end());
    return snap;
}

void
Registry::reset()
{
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_.clear();
    gauges_.clear();
    phases_.clear();
    latencies_.clear();
}

// ------------------------------------------------- serialization

namespace {

/** Shortest representation that parses back to the same double. */
std::string
formatDouble(double v)
{
    char buf[64];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

void
appendEscaped(std::string &out, std::string_view s)
{
    out += '"';
    for (const char ch : s) {
        switch (ch) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default: out += ch; break;
        }
    }
    out += '"';
}

template <typename Map, typename WriteValue>
void
appendMap(std::string &out, const char *key, const Map &map,
          const WriteValue &write_value, const char *indent = "  ")
{
    out += indent;
    appendEscaped(out, key);
    out += ": {";
    bool first = true;
    for (const auto &[name, value] : map) {
        out += first ? "\n" : ",\n";
        first = false;
        out += indent;
        out += "  ";
        appendEscaped(out, name);
        out += ": ";
        write_value(out, value);
    }
    if (!first) {
        out += '\n';
        out += indent;
    }
    out += '}';
}

void
appendSnapshotBody(std::string &out, const MetricsSnapshot &snap)
{
    appendMap(out, "phases", snap.phases,
              [](std::string &o, const PhaseStats &p) {
                  o += "{\"wall_s\": " + formatDouble(p.wall_s)
                      + ", \"cpu_s\": " + formatDouble(p.cpu_s)
                      + ", \"count\": " + std::to_string(p.count)
                      + "}";
              });
    out += ",\n";
    appendMap(out, "counters", snap.counters,
              [](std::string &o, std::uint64_t v) {
                  o += std::to_string(v);
              });
    out += ",\n";
    appendMap(out, "gauges", snap.gauges,
              [](std::string &o, double v) {
                  o += formatDouble(v);
              });
    out += ",\n";
    appendMap(out, "latencies", snap.latencies,
              [](std::string &o, const HistogramSnapshot &h) {
                  o += "{\"count\": " + std::to_string(h.count)
                      + ", \"total_s\": " + formatDouble(h.total_s)
                      + ", \"buckets\": [";
                  for (std::size_t i = 0; i < h.buckets.size(); ++i) {
                      if (i > 0)
                          o += ", ";
                      o += std::to_string(h.buckets[i]);
                  }
                  o += "]}";
              });
}

} // namespace

std::string
toJson(const MetricsSnapshot &snap)
{
    std::string out = "{\n";
    appendSnapshotBody(out, snap);
    out += "\n}\n";
    return out;
}

std::string
benchPerfJson(const std::string &bench, const std::string &mode,
              std::size_t threads, const MetricsSnapshot &snap)
{
    std::string out = "{\n";
    out += "  \"schema\": \"emstress-bench-perf-v1\",\n";
    out += "  \"bench\": ";
    appendEscaped(out, bench);
    out += ",\n  \"mode\": ";
    appendEscaped(out, mode);
    out += ",\n  \"threads\": " + std::to_string(threads) + ",\n";
    appendSnapshotBody(out, snap);
    out += "\n}\n";
    return out;
}

// ------------------------------------------------------- parsing

namespace {

/** Generic value of the JSON subset the snapshot schema emits. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    bool boolean = false;
    std::string number; ///< Raw text: re-parsed per target type.
    std::string str;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    const JsonValue *
    find(std::string_view key) const
    {
        for (const auto &[k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue(0);
        skipWs();
        requireSim(pos_ == text_.size(),
                   "metrics JSON: trailing characters");
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\n'
                   || text_[pos_] == '\t' || text_[pos_] == '\r'))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        requireSim(pos_ < text_.size(),
                   "metrics JSON: unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char ch)
    {
        requireSim(peek() == ch,
                   std::string("metrics JSON: expected '") + ch
                       + "'");
        ++pos_;
    }

    /** A value inside `depth` open objects and arrays. */
    JsonValue
    parseValue(std::size_t depth)
    {
        const char ch = peek();
        if (ch == '{' || ch == '[')
            requireSim(depth < kMaxJsonDepth,
                       "metrics JSON: nested deeper than "
                           + std::to_string(kMaxJsonDepth));
        if (ch == '{')
            return parseObject(depth + 1);
        if (ch == '[')
            return parseArray(depth + 1);
        if (ch == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
            return v;
        }
        if (ch == 't' || ch == 'f')
            return parseKeyword();
        if (ch == 'n')
            return parseKeyword();
        return parseNumber();
    }

    JsonValue
    parseObject(std::size_t depth)
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            std::string key = parseString();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue(depth));
            const char ch = peek();
            ++pos_;
            if (ch == '}')
                return v;
            requireSim(ch == ',',
                       "metrics JSON: expected ',' or '}'");
        }
    }

    JsonValue
    parseArray(std::size_t depth)
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue(depth));
            const char ch = peek();
            ++pos_;
            if (ch == ']')
                return v;
            requireSim(ch == ',',
                       "metrics JSON: expected ',' or ']'");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            requireSim(pos_ < text_.size(),
                       "metrics JSON: unterminated string");
            const char ch = text_[pos_++];
            if (ch == '"')
                return out;
            if (ch != '\\') {
                out += ch;
                continue;
            }
            requireSim(pos_ < text_.size(),
                       "metrics JSON: unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            default:
                throw SimulationError(
                    "metrics JSON: unsupported escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        const std::size_t start = pos_;
        while (pos_ < text_.size()) {
            const char ch = text_[pos_];
            if ((ch >= '0' && ch <= '9') || ch == '-' || ch == '+'
                || ch == '.' || ch == 'e' || ch == 'E'
                || ch == 'i' || ch == 'n' || ch == 'f' || ch == 'a')
                ++pos_;
            else
                break;
        }
        requireSim(pos_ > start, "metrics JSON: expected a number");
        v.number.assign(text_.substr(start, pos_ - start));
        return v;
    }

    JsonValue
    parseKeyword()
    {
        JsonValue v;
        for (const std::string_view kw :
             {std::string_view("true"), std::string_view("false"),
              std::string_view("null")}) {
            if (text_.substr(pos_, kw.size()) == kw) {
                pos_ += kw.size();
                v.kind = kw == "null" ? JsonValue::Kind::Null
                                      : JsonValue::Kind::Bool;
                v.boolean = kw == "true";
                return v;
            }
        }
        throw SimulationError("metrics JSON: unknown keyword");
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

std::uint64_t
asUint64(const JsonValue &v)
{
    requireSim(v.kind == JsonValue::Kind::Number,
               "metrics JSON: expected an integer");
    std::uint64_t out = 0;
    const auto res = std::from_chars(
        v.number.data(), v.number.data() + v.number.size(), out);
    requireSim(res.ec == std::errc()
                   && res.ptr == v.number.data() + v.number.size(),
               "metrics JSON: malformed integer");
    return out;
}

double
asDouble(const JsonValue &v)
{
    requireSim(v.kind == JsonValue::Kind::Number,
               "metrics JSON: expected a number");
    double out = 0.0;
    const auto res = std::from_chars(
        v.number.data(), v.number.data() + v.number.size(), out);
    requireSim(res.ec == std::errc()
                   && res.ptr == v.number.data() + v.number.size(),
               "metrics JSON: malformed number");
    return out;
}

const JsonValue *
requireObject(const JsonValue &v, std::string_view key)
{
    const JsonValue *child = v.find(key);
    if (child == nullptr)
        return nullptr;
    requireSim(child->kind == JsonValue::Kind::Object,
               "metrics JSON: expected an object");
    return child;
}

} // namespace

MetricsSnapshot
parseSnapshotJson(const std::string &json)
{
    JsonParser parser(json);
    const JsonValue root = parser.parse();
    requireSim(root.kind == JsonValue::Kind::Object,
               "metrics JSON: top level must be an object");

    MetricsSnapshot snap;
    if (const JsonValue *counters = requireObject(root, "counters"))
        for (const auto &[name, value] : counters->object)
            snap.counters.emplace(name, asUint64(value));
    if (const JsonValue *gauges = requireObject(root, "gauges"))
        for (const auto &[name, value] : gauges->object)
            snap.gauges.emplace(name, asDouble(value));
    if (const JsonValue *phases = requireObject(root, "phases")) {
        for (const auto &[name, value] : phases->object) {
            requireSim(value.kind == JsonValue::Kind::Object,
                       "metrics JSON: phase must be an object");
            PhaseStats p;
            if (const JsonValue *w = value.find("wall_s"))
                p.wall_s = asDouble(*w);
            if (const JsonValue *c = value.find("cpu_s"))
                p.cpu_s = asDouble(*c);
            if (const JsonValue *n = value.find("count"))
                p.count = asUint64(*n);
            snap.phases.emplace(name, p);
        }
    }
    if (const JsonValue *lats = requireObject(root, "latencies")) {
        for (const auto &[name, value] : lats->object) {
            requireSim(value.kind == JsonValue::Kind::Object,
                       "metrics JSON: latency must be an object");
            HistogramSnapshot h;
            if (const JsonValue *n = value.find("count"))
                h.count = asUint64(*n);
            if (const JsonValue *t = value.find("total_s"))
                h.total_s = asDouble(*t);
            if (const JsonValue *b = value.find("buckets")) {
                requireSim(b->kind == JsonValue::Kind::Array,
                           "metrics JSON: buckets must be an array");
                h.buckets.reserve(b->array.size());
                for (const JsonValue &e : b->array)
                    h.buckets.push_back(asUint64(e));
            }
            snap.latencies.emplace(name, h);
        }
    }
    return snap;
}

} // namespace metrics
} // namespace emstress
