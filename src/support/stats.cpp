#include "support/stats.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>

#include "support/assert.hpp"
#include "support/rng.hpp"

namespace cilkpp {

void accumulator::add(double x) {
  if (count_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double accumulator::min() const {
  CILKPP_ASSERT(count_ > 0, "min() of empty accumulator");
  return min_;
}

double accumulator::max() const {
  CILKPP_ASSERT(count_ > 0, "max() of empty accumulator");
  return max_;
}

double accumulator::mean() const {
  CILKPP_ASSERT(count_ > 0, "mean() of empty accumulator");
  return mean_;
}

double accumulator::variance() const {
  if (count_ < 2) return 0;
  return m2_ / static_cast<double>(count_ - 1);
}

double accumulator::stddev() const { return std::sqrt(variance()); }

void accumulator::merge(const accumulator& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double delta = other.mean_ - mean_;
  const double n = n1 + n2;
  mean_ += delta * n2 / n;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

// --- latency_histogram -----------------------------------------------------
//
// Geometry: values below 64 ns get one slot each (two exact octaves), then
// every octave is cut into 32 linear sub-buckets — slot = f(bit_width) with
// two shifts, no floating point, no branches beyond the small-value test.

std::size_t latency_histogram::index_of(std::uint64_t v) {
  constexpr std::uint64_t exact = 1ULL << (sub_bucket_bits + 1);  // 64
  if (v < exact) return static_cast<std::size_t>(v);
  const unsigned w = std::bit_width(v);             // >= sub_bucket_bits + 2
  const unsigned shift = w - (sub_bucket_bits + 1);  // >= 1
  const std::uint64_t top = v >> shift;             // in [32, 64)
  return ((static_cast<std::size_t>(shift) + 1) << sub_bucket_bits) +
         static_cast<std::size_t>(top - (exact >> 1));
}

std::uint64_t latency_histogram::slot_high(std::size_t i) {
  constexpr std::size_t exact = std::size_t{1} << (sub_bucket_bits + 1);
  if (i < exact) return i;
  const std::size_t shift = (i >> sub_bucket_bits) - 1;
  const std::uint64_t top = (exact >> 1) + (i & ((1u << sub_bucket_bits) - 1));
  return ((top + 1) << shift) - 1;
}

void latency_histogram::add(std::uint64_t value_ns) {
  ++counts_[index_of(value_ns)];
  ++total_;
  sum_ += value_ns;
  min_ = std::min(min_, value_ns);
  max_ = std::max(max_, value_ns);
}

std::uint64_t latency_histogram::min() const {
  CILKPP_ASSERT(total_ > 0, "min() of empty latency_histogram");
  return min_;
}

std::uint64_t latency_histogram::max() const {
  CILKPP_ASSERT(total_ > 0, "max() of empty latency_histogram");
  return max_;
}

double latency_histogram::mean() const {
  CILKPP_ASSERT(total_ > 0, "mean() of empty latency_histogram");
  return static_cast<double>(sum_) / static_cast<double>(total_);
}

std::uint64_t latency_histogram::percentile(double p) const {
  CILKPP_ASSERT(total_ > 0, "percentile() of empty latency_histogram");
  p = std::clamp(p, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(
      std::ceil(p * static_cast<double>(total_)));
  if (rank == 0) rank = 1;
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < slots(); ++i) {
    cum += counts_[i];
    if (cum >= rank) return std::clamp(slot_high(i), min_, max_);
  }
  return max_;  // unreachable: cum reaches total_ by the last nonzero slot
}

void latency_histogram::merge(const latency_histogram& other) {
  if (other.total_ == 0) return;
  for (std::size_t i = 0; i < slots(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

// --- reservoir_sampler -----------------------------------------------------

reservoir_sampler::reservoir_sampler(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), rng_state_(seed ? seed : 1) {
  CILKPP_ASSERT(capacity > 0, "reservoir needs capacity >= 1");
  samples_.reserve(capacity);
}

void reservoir_sampler::add(std::uint64_t value) {
  ++seen_;
  if (samples_.size() < capacity_) {
    samples_.push_back(value);
    return;
  }
  // Algorithm R: keep the newcomer with probability capacity/seen, evicting
  // a uniformly random incumbent.
  const std::uint64_t r = splitmix64(rng_state_) % seen_;
  if (r < capacity_) samples_[static_cast<std::size_t>(r)] = value;
}

void reservoir_sampler::merge(const reservoir_sampler& other) {
  // Not a weighted merge (that needs per-sample tags); good enough for the
  // "carry a few raw examples" role: feed the other's retained samples in.
  for (std::uint64_t v : other.samples_) add(v);
}

void json_writer::indent() {
  out_.push_back('\n');
  out_.append(stack_.size() * 2, ' ');
}

void json_writer::begin_value() {
  if (stack_.empty()) {
    CILKPP_ASSERT(out_.empty(), "json_writer: one top-level value only");
    return;
  }
  level& top = stack_.back();
  if (top.is_object) {
    // Inside an object every value is preceded by key(), which already did
    // the separation; here we only consume the pending-key mark.
    CILKPP_ASSERT(key_pending_, "json_writer: object member without key()");
    key_pending_ = false;
    return;
  }
  CILKPP_ASSERT(!key_pending_, "json_writer: key() inside an array");
  if (top.has_items) out_.push_back(',');
  top.has_items = true;
  indent();
}

void json_writer::key(std::string_view k) {
  CILKPP_ASSERT(!stack_.empty() && stack_.back().is_object,
                "json_writer: key() outside an object");
  CILKPP_ASSERT(!key_pending_, "json_writer: two keys in a row");
  level& top = stack_.back();
  if (top.has_items) out_.push_back(',');
  top.has_items = true;
  indent();
  escape(k);
  out_.append(": ");
  key_pending_ = true;
}

void json_writer::open(char c, bool is_object) {
  begin_value();
  out_.push_back(c);
  stack_.push_back({is_object, false});
}

void json_writer::close(char c, bool is_object) {
  CILKPP_ASSERT(!stack_.empty() && stack_.back().is_object == is_object,
                "json_writer: mismatched container close");
  CILKPP_ASSERT(!key_pending_, "json_writer: key() without a value");
  const bool had_items = stack_.back().has_items;
  stack_.pop_back();
  if (had_items) indent();
  out_.push_back(c);
}

void json_writer::begin_object() { open('{', /*is_object=*/true); }
void json_writer::end_object() { close('}', /*is_object=*/true); }
void json_writer::begin_array() { open('[', /*is_object=*/false); }
void json_writer::end_array() { close(']', /*is_object=*/false); }

void json_writer::escape(std::string_view s) {
  out_.push_back('"');
  for (const char ch : s) {
    switch (ch) {
      case '"': out_.append("\\\""); break;
      case '\\': out_.append("\\\\"); break;
      case '\n': out_.append("\\n"); break;
      case '\t': out_.append("\\t"); break;
      case '\r': out_.append("\\r"); break;
      default:
        if (static_cast<unsigned char>(ch) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", ch);
          out_.append(buf);
        } else {
          out_.push_back(ch);
        }
    }
  }
  out_.push_back('"');
}

void json_writer::value(std::string_view v) {
  begin_value();
  escape(v);
}

void json_writer::value(double v) {
  if (!std::isfinite(v)) {
    null();  // JSON has no NaN/Inf
    return;
  }
  begin_value();
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void json_writer::value(std::int64_t v) {
  begin_value();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void json_writer::value(std::uint64_t v) {
  begin_value();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void json_writer::value(bool v) {
  begin_value();
  out_.append(v ? "true" : "false");
}

void json_writer::null() {
  begin_value();
  out_.append("null");
}

std::string json_writer::take() {
  CILKPP_ASSERT(stack_.empty(), "json_writer: take() with open containers");
  CILKPP_ASSERT(!key_pending_, "json_writer: take() with a dangling key");
  out_.push_back('\n');
  std::string result = std::move(out_);
  out_.clear();
  return result;
}

}  // namespace cilkpp
