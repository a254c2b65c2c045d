#include "common/histogram.hpp"

#include <algorithm>
#include <bit>
#include <sstream>

#include "common/assert.hpp"

namespace bacp {

Histogram::Histogram(unsigned sub_bits) : sub_bits_(sub_bits) {
    BACP_ASSERT_MSG(sub_bits >= 1 && sub_bits <= 10, "sub_bits in [1,10]");
}

void Histogram::ensure_buckets() {
    // 64 exponent ranges x 2^sub_bits sub-buckets covers all uint64 values.
    if (buckets_.empty()) {
        buckets_.assign(static_cast<std::size_t>(64 - sub_bits_ + 1) << sub_bits_, 0);
    }
}

std::size_t Histogram::bucket_index(std::uint64_t value) const {
    // Values below 2^sub_bits are exact (one bucket per value).
    if (value < (1ULL << sub_bits_)) return static_cast<std::size_t>(value);
    const unsigned msb = 63U - static_cast<unsigned>(std::countl_zero(value));
    const unsigned exp = msb - sub_bits_;               // how far above the exact range
    const std::uint64_t sub = (value >> exp) & ((1ULL << sub_bits_) - 1);
    return ((static_cast<std::size_t>(exp) + 1) << sub_bits_) + static_cast<std::size_t>(sub);
}

std::uint64_t Histogram::bucket_upper(std::size_t idx) const {
    if (idx < (1ULL << sub_bits_)) return idx;
    const std::size_t exp = (idx >> sub_bits_) - 1;
    const std::uint64_t sub = idx & ((1ULL << sub_bits_) - 1);
    const std::uint64_t base = (1ULL << sub_bits_) << exp;
    const std::uint64_t width = 1ULL << exp;
    return base + sub * width + (width - 1);
}

void Histogram::add(std::int64_t value) {
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    const std::size_t idx = bucket_index(v);
    ensure_buckets();
    BACP_ASSERT(idx < buckets_.size());
    ++buckets_[idx];
    if (count_ == 0) {
        min_ = max_ = static_cast<std::int64_t>(v);
    } else {
        min_ = std::min<std::int64_t>(min_, static_cast<std::int64_t>(v));
        max_ = std::max<std::int64_t>(max_, static_cast<std::int64_t>(v));
    }
    ++count_;
    sum_ += static_cast<double>(v);
}

double Histogram::mean() const { return count_ ? sum_ / static_cast<double>(count_) : 0.0; }

std::int64_t Histogram::quantile(double q) const {
    if (count_ == 0) return 0;
    q = std::clamp(q, 0.0, 1.0);
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target) {
            return std::min<std::int64_t>(static_cast<std::int64_t>(bucket_upper(i)), max_);
        }
    }
    return max_;
}

void Histogram::merge(const Histogram& other) {
    BACP_ASSERT_MSG(sub_bits_ == other.sub_bits_, "histogram precision mismatch");
    if (other.count_ == 0) return;  // also skips a reset histogram's zeroed buckets
    ensure_buckets();
    for (std::size_t i = 0; i < buckets_.size(); ++i) buckets_[i] += other.buckets_[i];
    min_ = count_ ? std::min(min_, other.min_) : other.min_;
    max_ = count_ ? std::max(max_, other.max_) : other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
}

void Histogram::reset() {
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
    min_ = max_ = 0;
}

std::string Histogram::summary() const {
    std::ostringstream os;
    os << "n=" << count_ << " mean=" << mean() << " p50=" << quantile(0.50)
       << " p90=" << quantile(0.90) << " p99=" << quantile(0.99) << " max=" << max();
    return os.str();
}

}  // namespace bacp
