// Shared helpers for the table-reproduction benches.
#ifndef MACHCONT_BENCH_BENCH_UTIL_H_
#define MACHCONT_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/trace_export.h"  // JsonEscape

namespace mkc {

inline double Pct(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : 100.0 * static_cast<double>(part) / static_cast<double>(whole);
}

// Scale factor from argv[1] or a default; benches accept a single optional
// argument to trade run time for fidelity to the paper's block counts.
inline int ScaleFromArgs(int argc, char** argv, int default_scale) {
  if (argc > 1) {
    int scale = std::atoi(argv[1]);
    if (scale > 0) {
      return scale;
    }
  }
  return default_scale;
}

// Machine-readable bench output: when MACHCONT_BENCH_JSON names a file, the
// bench writes `json` there alongside its human-readable table. Returns true
// if the file was written.
inline bool MaybeWriteBenchJson(const std::string& json) {
  const char* path = std::getenv("MACHCONT_BENCH_JSON");
  if (path == nullptr || path[0] == '\0') {
    return false;
  }
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "bench: cannot open %s for writing\n", path);
    return false;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  std::fprintf(stderr, "bench: wrote metrics JSON to %s\n", path);
  return true;
}

// Unified machine-readable bench output. Every bench_* binary reports
// through one schema:
//
//   {"bench": "<name>", "config": {...}, "metrics": {...}}
//
// `config` holds the knobs that shaped the run (scale, iterations, model);
// `metrics` holds what was measured. CI and tools/check_perf_regression.py
// parse this shape uniformly, so additions must stay backward-compatible:
// add keys, don't move them. Scalars go in via Config()/Metric(); nested
// arrays or objects are pre-rendered and attached with ConfigJson()/
// MetricJson(). (bench_micro is the one exception: google-benchmark already
// has its own --benchmark_format=json.)
class BenchJsonBuilder {
 public:
  explicit BenchJsonBuilder(std::string bench) : bench_(std::move(bench)) {}

  BenchJsonBuilder& Config(const std::string& key, long long v) {
    return ConfigJson(key, std::to_string(v));
  }
  BenchJsonBuilder& Config(const std::string& key, unsigned long long v) {
    return ConfigJson(key, std::to_string(v));
  }
  BenchJsonBuilder& Config(const std::string& key, int v) {
    return Config(key, static_cast<long long>(v));
  }
  BenchJsonBuilder& Config(const std::string& key, const std::string& v) {
    return ConfigJson(key, Quoted(v));
  }
  BenchJsonBuilder& Config(const std::string& key, const char* v) {
    return Config(key, std::string(v));
  }
  BenchJsonBuilder& ConfigJson(const std::string& key, const std::string& rendered) {
    Append(&config_, key, rendered);
    return *this;
  }

  BenchJsonBuilder& Metric(const std::string& key, long long v) {
    return MetricJson(key, std::to_string(v));
  }
  BenchJsonBuilder& Metric(const std::string& key, unsigned long long v) {
    return MetricJson(key, std::to_string(v));
  }
  BenchJsonBuilder& Metric(const std::string& key, std::uint64_t v) {
    return Metric(key, static_cast<unsigned long long>(v));
  }
  BenchJsonBuilder& Metric(const std::string& key, int v) {
    return Metric(key, static_cast<long long>(v));
  }
  BenchJsonBuilder& Metric(const std::string& key, double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f", v);
    return MetricJson(key, buf);
  }
  BenchJsonBuilder& Metric(const std::string& key, const std::string& v) {
    return MetricJson(key, Quoted(v));
  }
  BenchJsonBuilder& MetricJson(const std::string& key, const std::string& rendered) {
    Append(&metrics_, key, rendered);
    return *this;
  }

  std::string Str() const {
    std::string out = "{\"bench\":\"";
    out += JsonEscape(bench_);
    out += "\",\"config\":{";
    out += config_;
    out += "},\"metrics\":{";
    out += metrics_;
    out += "}}\n";
    return out;
  }

  // Writes to $MACHCONT_BENCH_JSON if set; returns whether a file was written.
  bool Write() const { return MaybeWriteBenchJson(Str()); }

 private:
  static std::string Quoted(const std::string& v) {
    std::string out = "\"";
    out += JsonEscape(v);
    out += '"';
    return out;
  }

  static void Append(std::string* out, const std::string& key,
                     const std::string& rendered) {
    if (!out->empty()) {
      *out += ',';
    }
    *out += '"';
    *out += JsonEscape(key);
    *out += "\":";
    *out += rendered;
  }

  std::string bench_;
  std::string config_;
  std::string metrics_;
};

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    std::chrono::duration<double> d = std::chrono::steady_clock::now() - start_;
    return d.count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Measured runs per host-time cell; the cell reports their median.
inline constexpr int kHostReps = 5;

// Host-time measurement with warm-up and repetition: runs `measure` once at
// a tenth of `iterations` (the first run of a cell reads ~50% high), then
// kHostReps times at full size, and returns the last result with its
// `host_ns` field replaced by the median over the repetitions. Every other
// field is virtual and so identical in each repetition.
template <typename Result, typename Fn>
Result WarmedMedian(Fn measure, int iterations, double Result::*host_ns) {
  measure(std::max(1, iterations / 10));
  std::vector<double> samples;
  Result result{};
  for (int i = 0; i < kHostReps; ++i) {
    result = measure(iterations);
    samples.push_back(result.*host_ns);
  }
  std::nth_element(samples.begin(), samples.begin() + kHostReps / 2, samples.end());
  result.*host_ns = samples[kHostReps / 2];
  return result;
}

}  // namespace mkc

#endif  // MACHCONT_BENCH_BENCH_UTIL_H_
