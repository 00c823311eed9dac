// Streaming statistics accumulators used by benchmarks and the simulator,
// plus a small JSON emitter so benchmarks can publish machine-readable
// artifacts (BENCH_*.json) for CI to archive and compare across runs.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace cilkpp {

/// Single-pass accumulator: count, min, max, mean, variance (Welford).
class accumulator {
 public:
  void add(double x);

  std::uint64_t count() const { return count_; }
  double min() const;
  double max() const;
  double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  double variance() const;
  double stddev() const;
  double sum() const { return sum_; }

  /// Merge another accumulator into this one (parallel-friendly).
  void merge(const accumulator& other);

 private:
  std::uint64_t count_ = 0;
  double min_ = 0;
  double max_ = 0;
  double mean_ = 0;
  double m2_ = 0;
  double sum_ = 0;
};

/// Log-bucketed latency histogram: HdrHistogram-style octave buckets with
/// 32 linear sub-buckets per octave, so relative bucket error is bounded at
/// ~3% across the whole nanosecond-to-minutes range while the table stays a
/// fixed 15 KiB of counters. add() is two shifts and an increment — cheap
/// enough to sit on a per-job recording path. Exact min/max are tracked on
/// the side so tails are never reported coarser than the data.
///
/// Shared by bench_jobserver (queue/exec/total latency), the serve-layer
/// latency_recorder, and available to cilk::trace interval stats; the
/// percentile convention (p(0.5) = smallest recorded bucket upper bound
/// with ≥ 50% of samples at or below it) matches what BENCH_*.json reports.
class latency_histogram {
 public:
  static constexpr unsigned sub_bucket_bits = 5;  ///< 32 sub-buckets/octave
  static constexpr unsigned octaves = 59;  ///< covers [0, 2^63] ns

  void add(std::uint64_t value_ns);

  std::uint64_t total() const { return total_; }
  std::uint64_t min() const;  ///< exact (not bucket-rounded); asserts total>0
  std::uint64_t max() const;  ///< exact; asserts total>0
  double mean() const;        ///< from the exact running sum

  /// Value (ns) such that at least fraction p of samples are <= it, at
  /// bucket resolution, clamped into [min(), max()]. p in [0, 1].
  std::uint64_t percentile(double p) const;
  std::uint64_t p50() const { return percentile(0.50); }
  std::uint64_t p90() const { return percentile(0.90); }
  std::uint64_t p99() const { return percentile(0.99); }
  std::uint64_t p999() const { return percentile(0.999); }

  /// Adds another histogram's samples into this one (same fixed geometry,
  /// so the merge is a plain counter sum — dispatcher-local recording plus
  /// a quiescent merge needs no locks).
  void merge(const latency_histogram& other);

  /// Number of counter slots (for iteration/serialization).
  static constexpr std::size_t slot_table_size =
      std::size_t{octaves + 1} << sub_bucket_bits;
  static constexpr std::size_t slots() { return slot_table_size; }
  std::uint64_t slot_count(std::size_t i) const { return counts_[i]; }
  /// Inclusive upper bound (ns) of slot i's value range.
  static std::uint64_t slot_high(std::size_t i);

 private:
  static std::size_t index_of(std::uint64_t v);

  std::uint64_t counts_[slot_table_size] = {};
  std::uint64_t total_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = ~std::uint64_t{0};
  std::uint64_t max_ = 0;
};

/// Fixed-capacity uniform reservoir (Vitter's Algorithm R): keeps each of
/// the n samples seen so far with probability k/n, deterministically from
/// the seed. The serve-layer latency recorder pairs one of these with the
/// histogram above so BENCH artifacts can carry raw example latencies (for
/// eyeballing outliers) next to the bucketed tails.
class reservoir_sampler {
 public:
  explicit reservoir_sampler(std::size_t capacity, std::uint64_t seed = 1);

  void add(std::uint64_t value);
  std::uint64_t seen() const { return seen_; }
  /// The retained samples, unordered (at most `capacity`).
  const std::vector<std::uint64_t>& samples() const { return samples_; }
  void merge(const reservoir_sampler& other);

 private:
  std::vector<std::uint64_t> samples_;
  std::size_t capacity_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_state_;
};

/// Minimal streaming JSON emitter (no DOM, no dependencies): nested
/// objects/arrays, string escaping per RFC 8259, shortest-round-trip
/// doubles via std::to_chars (non-finite values become null — JSON has no
/// NaN/Inf). Commas and colons are placed automatically; structural misuse
/// (value with no key inside an object, unbalanced end_*) trips
/// CILKPP_ASSERT. Used by the benchmarks to write BENCH_*.json.
///
///   json_writer w;
///   w.begin_object();
///   w.field("pair_ns", 62.4);
///   w.key("workers"); w.begin_array(); w.value(1); w.value(4); w.end_array();
///   w.end_object();
///   std::string doc = w.take();
class json_writer {
 public:
  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emits the key of the next object member.
  void key(std::string_view k);

  void value(std::string_view v);
  void value(const char* v) { value(std::string_view(v)); }
  void value(double v);
  void value(std::int64_t v);
  void value(std::uint64_t v);
  void value(int v) { value(static_cast<std::int64_t>(v)); }
  void value(unsigned v) { value(static_cast<std::uint64_t>(v)); }
  void value(bool v);
  void null();

  /// key + value in one call, for flat object members.
  template <typename V>
  void field(std::string_view k, V v) {
    key(k);
    value(v);
  }

  /// Finishes the document and returns it. The writer is reset to empty.
  std::string take();

 private:
  struct level {
    bool is_object;
    bool has_items;  ///< a member was already emitted (comma needed)
  };

  void begin_value();  ///< comma/indent bookkeeping before any value
  void open(char c, bool is_object);
  void close(char c, bool is_object);
  void indent();
  void escape(std::string_view s);

  std::string out_;
  std::vector<level> stack_;
  bool key_pending_ = false;  ///< key() emitted, awaiting its value
};

}  // namespace cilkpp
