#pragma once

/// \file histogram.hpp
/// Log-bucketed histogram for latency-style distributions.
///
/// Values are binned into power-of-two buckets subdivided linearly, giving
/// a bounded relative error (HdrHistogram-style).  Quantile queries
/// interpolate within the winning bucket.
///
/// The bucket array ((64 - sub_bits + 1) << sub_bits counters, 15 KiB at
/// the default precision) is allocated on the first add(), or the first
/// merge() of a non-empty histogram, and never grows or shrinks after
/// that -- so recording stays allocation-free once a histogram has seen
/// one value, and a histogram that is never fed costs only its header.
/// Every endpoint driver carries two (delivery and ack latency) and most
/// sessions feed at most one of them.

#include <cstdint>
#include <string>
#include <vector>

namespace bacp {

class Histogram {
public:
    /// \p sub_bits controls precision: each power-of-two range is split
    /// into 2^sub_bits linear sub-buckets (relative error <= 2^-sub_bits).
    explicit Histogram(unsigned sub_bits = 5);

    /// Records one non-negative value (negative values clamp to 0).
    void add(std::int64_t value);

    /// Total number of recorded values.
    std::uint64_t count() const { return count_; }

    /// Arithmetic mean of recorded values (0 when empty).
    double mean() const;

    /// q-quantile (q in [0,1]) with linear interpolation; 0 when empty.
    std::int64_t quantile(double q) const;

    std::int64_t min() const { return count_ ? min_ : 0; }
    std::int64_t max() const { return count_ ? max_ : 0; }

    void merge(const Histogram& other);
    void reset();

    /// "p50=... p90=... p99=... max=..." line for reports.
    std::string summary() const;

private:
    std::size_t bucket_index(std::uint64_t value) const;
    /// Representative (upper-edge) value of bucket \p idx.
    std::uint64_t bucket_upper(std::size_t idx) const;
    /// Allocates the zeroed bucket array if this histogram has none yet.
    void ensure_buckets();

    unsigned sub_bits_;
    std::vector<std::uint64_t> buckets_;  // empty until first use
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    std::int64_t min_ = 0;
    std::int64_t max_ = 0;
};

}  // namespace bacp
