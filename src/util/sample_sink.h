/**
 * @file
 * Streaming sample sinks. A SampleSink consumes a uniformly sampled
 * signal one value at a time, so producer stages (core model, PDN
 * stepper, antenna) can feed observer stages (instruments, traces)
 * without ever materializing a full-duration buffer. Trace remains
 * the batch container; TraceSink bridges the two worlds.
 *
 * Contract: the producer calls push() once per sample in time order,
 * then finish() exactly once. A transforming sink flushes any held
 * tail samples downstream inside its own finish() and then cascades
 * finish() to its downstream sink, so a single finish() at the head
 * of a chain drains the whole pipeline.
 */

#ifndef EMSTRESS_UTIL_SAMPLE_SINK_H
#define EMSTRESS_UTIL_SAMPLE_SINK_H

#include <cstddef>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/trace.h"

namespace emstress {

/** Consumer of a uniformly sampled streaming signal. */
class SampleSink
{
  public:
    virtual ~SampleSink() = default;

    /** Consume the next sample. */
    virtual void push(double v) = 0;

    /**
     * Signal end-of-stream. Transforming sinks flush held samples
     * downstream and cascade finish() to their downstream sink.
     */
    virtual void finish() {}
};

/** Sink that discards every sample (placeholder observer). */
class NullSink final : public SampleSink
{
  public:
    void push(double) override {}
};

/** Batch bridge: collects the stream into a Trace. */
class TraceSink final : public SampleSink
{
  public:
    explicit TraceSink(double dt_seconds) : trace_(dt_seconds) {}

    void push(double v) override { trace_.push(v); }

    /** Reserve capacity when the sample count is known a priori. */
    void reserve(std::size_t n) { trace_.reserve(n); }

    /** The collected trace (valid any time; complete after finish). */
    const Trace &trace() const { return trace_; }

    /** Move the collected trace out. */
    Trace take() { return std::move(trace_); }

  private:
    Trace trace_;
};

/**
 * Pass samples [skip, skip + count) downstream and drop the rest —
 * the streaming equivalent of Trace::slice for settle-time stripping.
 */
class SliceSink final : public SampleSink
{
  public:
    SliceSink(SampleSink &downstream, std::size_t skip,
              std::size_t count)
        : downstream_(downstream), skip_(skip), count_(count)
    {
    }

    void
    push(double v) override
    {
        if (seen_ >= skip_ && seen_ - skip_ < count_)
            downstream_.push(v);
        ++seen_;
    }

    void finish() override { downstream_.finish(); }

  private:
    SampleSink &downstream_;
    std::size_t skip_;
    std::size_t count_;
    std::size_t seen_ = 0;
};

/**
 * Streaming zero-order-hold rate conversion, sample-exact against
 * Trace::resampleZeroOrderHold for the same (n_in, dt_in, new_dt):
 * the output length comes from Trace::outputLengthFor and each output
 * sample j replays input index clamp(floor(new_dt * j / dt_in)).
 * The input length must be known a priori (it fixes the output
 * length and the tail clamp).
 */
class ZohResampleSink final : public SampleSink
{
  public:
    ZohResampleSink(SampleSink &downstream, std::size_t n_in,
                    double dt_in, double new_dt)
        : downstream_(downstream), n_in_(n_in), dt_in_(dt_in),
          new_dt_(new_dt)
    {
        requireConfig(new_dt > 0.0, "resample dt must be positive");
        requireConfig(n_in > 0,
                      "ZohResampleSink needs a non-empty input");
        n_out_ = Trace::outputLengthFor(
            dt_in * static_cast<double>(n_in), new_dt);
        next_src_ = srcIndex(0);
    }

    /** Output samples this stream will produce. */
    std::size_t outputSize() const { return n_out_; }

    void
    push(double v) override
    {
        last_ = v;
        while (next_out_ < n_out_ && next_src_ == seen_) {
            downstream_.push(v);
            next_src_ = srcIndex(++next_out_);
        }
        ++seen_;
    }

    void
    finish() override
    {
        // Outputs whose source index clamps past the final input
        // sample hold its value.
        while (next_out_ < n_out_) {
            downstream_.push(last_);
            ++next_out_;
        }
        downstream_.finish();
    }

  private:
    std::size_t
    srcIndex(std::size_t j) const
    {
        const double t = new_dt_ * static_cast<double>(j);
        auto src = static_cast<std::size_t>(t / dt_in_);
        if (src >= n_in_)
            src = n_in_ - 1;
        return src;
    }

    SampleSink &downstream_;
    std::size_t n_in_;
    double dt_in_;
    double new_dt_;
    std::size_t n_out_ = 0;
    std::size_t next_out_ = 0;
    std::size_t next_src_ = 0; ///< srcIndex(next_out_).
    std::size_t seen_ = 0;
    double last_ = 0.0;
};

/** Replicate one stream to several downstream sinks. */
class FanoutSink final : public SampleSink
{
  public:
    /** Null entries are permitted and skipped. */
    explicit FanoutSink(std::vector<SampleSink *> sinks)
        : sinks_(std::move(sinks))
    {
    }

    void
    push(double v) override
    {
        for (auto *s : sinks_)
            if (s != nullptr)
                s->push(v);
    }

    void
    finish() override
    {
        for (auto *s : sinks_)
            if (s != nullptr)
                s->finish();
    }

  private:
    std::vector<SampleSink *> sinks_;
};

} // namespace emstress

#endif // EMSTRESS_UTIL_SAMPLE_SINK_H
