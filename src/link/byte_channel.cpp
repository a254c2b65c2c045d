#include "link/byte_channel.hpp"

#include "common/assert.hpp"
#include "common/types.hpp"

namespace bacp::link {

ByteChannel::Config ByteChannel::Config::lossy(double loss, SimTime delay_lo, SimTime delay_hi,
                                               double corrupt_p) {
    Config config;
    if (loss > 0) config.loss = std::make_unique<channel::BernoulliLoss>(loss);
    config.delay = std::make_unique<channel::UniformDelay>(delay_lo, delay_hi);
    config.corrupt_p = corrupt_p;
    return config;
}

ByteChannel::Config ByteChannel::Config::from_spec(const runtime::LinkSpec& spec) {
    BACP_ASSERT_MSG(!spec.fifo && !spec.track_contents,
                    "byte channels are unordered and untracked");
    sim::SimChannel::Config models = spec.make_config();
    Config config;
    config.loss = std::move(models.loss);
    config.delay = std::move(models.delay);
    config.service_time = models.service_time;
    config.queue_capacity = models.queue_capacity;
    return config;
}

ByteChannel::ByteChannel(sim::Simulator& sim, Rng& rng, Config config)
    : sim_(sim),
      rng_(rng),
      loss_(config.loss ? std::move(config.loss) : std::make_unique<channel::NoLoss>()),
      delay_(config.delay ? std::move(config.delay)
                          : std::make_unique<channel::FixedDelay>(kMillisecond)),
      corrupt_p_(config.corrupt_p),
      service_time_(config.service_time),
      service_per_byte_(config.service_per_byte),
      queue_capacity_(config.queue_capacity) {
    BACP_ASSERT_MSG(corrupt_p_ >= 0.0 && corrupt_p_ <= 1.0, "corrupt_p in [0,1]");
}

void ByteChannel::send(Frame frame) {
    BACP_ASSERT_MSG(receiver_ != nullptr, "byte channel has no receiver");
    ++stats_.sent;
    stats_.bytes_sent += frame.size();
    if (loss_->drop(rng_)) {
        ++stats_.dropped;
        return;
    }
    if (!frame.empty() && rng_.chance(corrupt_p_)) {
        // Flip one random bit; the codec's CRC must catch it downstream.
        const std::size_t bit = static_cast<std::size_t>(rng_.uniform(frame.size() * 8));
        frame[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
        ++stats_.corrupted;
    }
    SimTime departure = sim_.now();
    if (service_time_ > 0 || service_per_byte_ > 0) {
        if (queued_ >= queue_capacity_) {
            ++stats_.dropped;  // tail drop
            return;
        }
        const SimTime this_service =
            service_time_ + service_per_byte_ * static_cast<SimTime>(frame.size());
        departure =
            (link_free_at_ > sim_.now() ? link_free_at_ : sim_.now()) + this_service;
        link_free_at_ = departure;
        ++queued_;
        sim_.schedule_at(departure, [this] {
            BACP_ASSERT(queued_ > 0);
            --queued_;
        });
    }
    const SimTime delivery = departure + delay_->sample(rng_);
    ++in_flight_;
    sim_.schedule_at(delivery, [this, frame = std::move(frame)] {
        BACP_ASSERT(in_flight_ > 0);
        --in_flight_;
        ++stats_.delivered;
        receiver_(frame);
    });
}

}  // namespace bacp::link
