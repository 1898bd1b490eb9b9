/**
 * @file
 * Known-answer tests for the benchmark's arithmetic: exact percentiles,
 * open-loop latency and lateness under a generator stall (the
 * coordinated-omission case), windowed rates, schedules and reply
 * framing. run.py runs this before every benchmark run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "loadgen.hh"
#include "stats.hh"

using namespace perfbench;

TEST(Percentile, NearestRankOnKnownSet)
{
    std::vector<double> v(1000);
    std::iota(v.begin(), v.end(), 1.0); // 1..1000
    std::reverse(v.begin(), v.end());
    EXPECT_EQ(percentile(v, 0.50), 500.0);
    EXPECT_EQ(percentile(v, 0.99), 990.0);
    EXPECT_EQ(percentile(v, 0.999), 999.0);
    EXPECT_EQ(percentile(v, 1.0), 1000.0);
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile({7.5}, 0.99), 7.5);
    EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(Percentile, ResolvesSmallChanges)
{
    // A log2 histogram reports both sets as one octave midpoint; raw
    // samples must tell 100 us from 190 us.
    std::vector<double> a(100, 100.0), b(100, 190.0);
    EXPECT_EQ(percentile(a, 0.5), 100.0);
    EXPECT_EQ(percentile(b, 0.5), 190.0);
}

TEST(Percentile, WindowedMedianIgnoresOneBadWindow)
{
    // Five windows of 1000: p99 is 990 in each, except one window hit
    // by a stall where every sample reads 1e6.
    std::vector<double> v;
    for (int w = 0; w < 5; ++w)
        for (int i = 1; i <= 1000; ++i)
            v.push_back(w == 2 ? 1e6 : static_cast<double>(i));
    EXPECT_EQ(windowedPercentile(v, 1000, 0.99, 0.5), 990.0);
    EXPECT_EQ(percentile(v, 0.99), 1e6); // the plain tail is the stall
    v.resize(5500, 1.0); // a partial trailing window is dropped
    EXPECT_EQ(windowedPercentile(v, 1000, 0.99, 0.5), 990.0);
    EXPECT_EQ(windowedPercentile({3.0, 1.0, 2.0}, 1000, 0.5, 0.5), 2.0);
}

TEST(Percentile, QuietQuartileIgnoresHalfTheWindowsStalled)
{
    // Eight windows of 100 samples 1..100 scaled by the window's
    // slowdown: four quiet windows (1x) and four a neighbour slowed
    // (3x, 5x, 7x, 9x). The lower quartile reads a quiet window, the
    // upper quartile a slowed one.
    const double slow[] = {1, 3, 1, 5, 1, 7, 1, 9};
    std::vector<double> v;
    for (double f : slow)
        for (int i = 1; i <= 100; ++i)
            v.push_back(f * i);
    EXPECT_EQ(windowedPercentile(v, 100, 0.99, kQuietLatency), 99.0);
    EXPECT_EQ(windowedPercentile(v, 100, 0.5, kQuietLatency), 50.0);
    EXPECT_EQ(windowedPercentile(v, 100, 0.99, 0.5), 99.0);
    EXPECT_EQ(windowedPercentile(v, 100, 0.99, 0.75), 5 * 99.0);
}

namespace {

/** 1000 requests due every 1 ms; nothing is sent or answered during a
 *  500 ms stall, after which each takes 0.1 ms. */
struct Stall {
    std::vector<std::int64_t> due, sent, done;

    Stall()
    {
        constexpr std::int64_t ms = 1'000'000;
        for (std::int64_t i = 0; i < 1000; ++i) {
            due.push_back(i * ms);
            sent.push_back(std::max(i * ms, 500 * ms));
            done.push_back(sent.back() + ms / 10);
        }
    }
};

} // namespace

TEST(OpenLoop, LatencyFromDueKeepsTheStall)
{
    const Stall s;
    std::vector<double> fromDue, fromSent, late;
    for (std::size_t i = 0; i < s.due.size(); ++i) {
        fromDue.push_back(latencyNs(s.due[i], s.done[i]) / 1e6);
        fromSent.push_back(latencyNs(s.sent[i], s.done[i]) / 1e6);
        late.push_back(latenessNs(s.due[i], s.sent[i]) / 1e6);
    }
    EXPECT_NEAR(percentile(fromDue, 0.50), 0.1, 1e-9);
    EXPECT_NEAR(percentile(fromDue, 0.99), 490.1, 1e-9);
    // Timing from the send hides the stall entirely.
    EXPECT_NEAR(percentile(fromSent, 0.99), 0.1, 1e-9);
    EXPECT_NEAR(percentile(late, 0.99), 490.0, 1e-9);
    EXPECT_EQ(latenessNs(100, 40), 0); // early sends are not late
}

TEST(OpenLoop, WindowRateIgnoresOneStalledWindow)
{
    // 1000 completions per 100 ms window for 5 windows, except the
    // middle window, which a stall leaves empty.
    std::vector<std::int64_t> done;
    constexpr std::int64_t win = 100'000'000;
    for (std::int64_t w = 0; w < 5; ++w)
        for (std::int64_t i = 0; i < 1000 && w != 2; ++i)
            done.push_back(w * win + i * (win / 1000));
    done.push_back(-1);          // never completed
    done.push_back(5 * win + 1); // past the end
    EXPECT_DOUBLE_EQ(windowRate(done, 0, 5 * win, win, 0.5), 10000.0);
    EXPECT_DOUBLE_EQ(windowRate(done, 0, 5 * win + 7, win, 0.5), 10000.0);
    EXPECT_DOUBLE_EQ(windowRate(done, 0, win / 2, win, 0.5), 0.0);
}

TEST(OpenLoop, QuietRateIgnoresHalfTheWindowsSlowed)
{
    // Completions per 100 ms window: 400, 1000, 300, 1000, 200, 1000,
    // 100, 1000. The median window is slowed, the upper quartile is not.
    const int per[] = {400, 1000, 300, 1000, 200, 1000, 100, 1000};
    std::vector<std::int64_t> done;
    constexpr std::int64_t win = 100'000'000;
    for (std::int64_t w = 0; w < 8; ++w)
        for (std::int64_t i = 0; i < per[w]; ++i)
            done.push_back(w * win + i * (win / per[w]));
    EXPECT_DOUBLE_EQ(windowRate(done, 0, 8 * win, win, kQuietRate), 10000.0);
    EXPECT_DOUBLE_EQ(windowRate(done, 0, 8 * win, win, 0.5), 4000.0);
}

TEST(OpenLoop, ScheduleScalesUnitGaps)
{
    const std::vector<double> ones(4, 1.0);
    Schedule at1k(ones, 0, 1000.0);
    EXPECT_EQ(at1k.next(), 1'000'000);
    EXPECT_EQ(at1k.next(), 2'000'000);
    Schedule wrap(ones, 3, 1000.0); // starts at the last gap, wraps
    for (int i = 0; i < 6; ++i)
        wrap.next();
    EXPECT_EQ(wrap.next(), 7'000'000);
    Schedule burst(ones, 0, 0.0);
    EXPECT_EQ(burst.next(), 0);

    hicamp::Rng rng(42);
    const auto gaps = unitPoissonGaps(200000, rng);
    EXPECT_NEAR(std::accumulate(gaps.begin(), gaps.end(), 0.0) /
                    static_cast<double>(gaps.size()),
                1.0, 0.01);
    EXPECT_GT(*std::min_element(gaps.begin(), gaps.end()), 0.0);
}

TEST(Framing, RepliesNeedAllTheirBytes)
{
    Reply r;
    EXPECT_EQ(frameReply("STORED\r\n", Shape::Line, r), 8u);
    EXPECT_EQ(r.line, "STORED");
    EXPECT_EQ(frameReply("STOR", Shape::Line, r), 0u);
    EXPECT_EQ(frameReply("END\r\n", Shape::Get, r), 5u);
    EXPECT_FALSE(r.hit);

    const std::string hit = "VALUE k 7 5\r\nhello\r\nEND\r\n";
    for (std::size_t cut = 0; cut < hit.size(); ++cut)
        EXPECT_EQ(frameReply(std::string_view(hit).substr(0, cut),
                             Shape::Get, r),
                  0u);
    EXPECT_EQ(frameReply(hit, Shape::Get, r), hit.size());
    EXPECT_TRUE(r.hit);
    EXPECT_EQ(r.flags, 7u);
    EXPECT_EQ(r.data, "hello");

    EXPECT_EQ(frameReply("VALUE k 7 5\r\nhelloXXEND\r\n", Shape::Get, r),
              25u);
    EXPECT_FALSE(r.hit);
    EXPECT_EQ(frameReply("SERVER_ERROR out of memory\r\n", Shape::Get, r),
              28u);
    EXPECT_FALSE(r.hit);
}
