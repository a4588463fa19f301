// Sharded pipeline: SPSC queue unit behaviour, and the correctness contract
// of ShardedInspector — any shard count must produce exactly the sequential
// FlowInspector's matches, because flows are pinned to shards by hash.
#include "pipeline/pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine_test_util.h"
#include "mfa/mfa.h"
#include "obs/metrics.h"
#include "pipeline/spsc_queue.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace mfa::pipeline {
namespace {

using mfa::testing::compile_patterns;

TEST(SpscQueue, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(SpscQueue<int>(1).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(2).capacity(), 2u);
  EXPECT_EQ(SpscQueue<int>(3).capacity(), 4u);
  EXPECT_EQ(SpscQueue<int>(4096).capacity(), 4096u);
  EXPECT_EQ(SpscQueue<int>(5000).capacity(), 8192u);
}

TEST(SpscQueue, FifoOrderSingleThread) {
  SpscQueue<int> q(8);
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full
  EXPECT_EQ(q.depth(), 8u);
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(q.try_pop(v));  // empty
  EXPECT_EQ(q.depth(), 0u);
}

TEST(SpscQueue, WrapsAroundManyTimes) {
  SpscQueue<int> q(4);
  int v = -1;
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(q.try_push(i));
    ASSERT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);
  }
}

TEST(SpscQueue, CloseWakesBurstPoppingConsumerAndDeliversEverything) {
  // A consumer that spins on try_pop and only exits once the queue is both
  // empty AND closed must terminate without losing any element, even though
  // close() races with its final empty-check.
  SpscQueue<int> q(32);
  constexpr int kCount = 1000;
  std::atomic<int> got{0};
  std::thread consumer([&] {
    int v = -1;
    for (;;) {
      bool popped = false;
      while (q.try_pop(v)) {  // burst-drain whatever is visible
        got.fetch_add(1, std::memory_order_relaxed);
        popped = true;
      }
      if (popped) continue;
      if (q.closed()) {
        // close() happens after the final push, so one last drain pass
        // observes everything published before the close.
        while (q.try_pop(v)) got.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      std::this_thread::yield();
    }
  });
  for (int i = 0; i < kCount; ++i)
    while (!q.try_push(i)) std::this_thread::yield();
  q.close();
  consumer.join();  // must not hang
  EXPECT_EQ(got.load(), kCount);
  EXPECT_TRUE(q.closed());
  q.reopen();
  EXPECT_FALSE(q.closed());
  EXPECT_TRUE(q.try_push(7));
}

TEST(SpscQueue, TwoThreadHandoffDeliversEverything) {
  SpscQueue<std::uint64_t> q(64);
  constexpr std::uint64_t kCount = 200000;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::uint64_t v = 0, got = 0;
    while (got < kCount) {
      if (q.try_pop(v)) {
        sum += v;
        ++got;
      } else {
        std::this_thread::yield();
      }
    }
  });
  for (std::uint64_t i = 1; i <= kCount; ++i)
    while (!q.try_push(i)) std::this_thread::yield();
  consumer.join();
  EXPECT_EQ(sum, kCount * (kCount + 1) / 2);
}

// --- ShardedInspector vs sequential FlowInspector ---

struct Fixture {
  core::Mfa mfa;
  trace::Trace trace;
  MatchVec sequential;  // sorted matches from a plain FlowInspector
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

Fixture make_fixture() {
  Fixture f;
  auto m = core::build_mfa(
      compile_patterns({".*atk1.*vec2", ".*worm77", ".*sig[0-9]end"}));
  EXPECT_TRUE(m.has_value());
  f.mfa = *std::move(m);
  f.trace = trace::make_real_life(trace::RealLifeProfile::kCyberDefense, 200000, 77,
                                  {"atk1 and vec2", "worm77", "sig5end"});
  flow::FlowInspector<core::Mfa> insp{f.mfa};
  CollectingSink sink;
  f.trace.for_each_packet([&](const flow::Packet& p) {
    ++f.packets;
    f.bytes += p.length;
    insp.packet(p, sink);
  });
  f.sequential = mfa::testing::sorted(std::move(sink.matches));
  return f;
}

TEST(ShardedInspector, MatchesSequentialAtEveryShardCount) {
  const Fixture f = make_fixture();
  ASSERT_FALSE(f.sequential.empty());
  for (const std::size_t shards : {1u, 2u, 4u}) {
    Options opt;
    opt.shards = shards;
    opt.collect_matches = true;
    ShardedInspector<core::Mfa> pipe(f.mfa, opt);
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    EXPECT_EQ(pipe.merged_matches(), f.sequential) << shards << " shards";
    EXPECT_EQ(pipe.totals().matches, f.sequential.size()) << shards << " shards";
  }
}

TEST(ShardedInspector, PerShardStatsSumToTraceTotals) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 4;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  ASSERT_EQ(pipe.stats().size(), 4u);
  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.packets, f.packets);
  EXPECT_EQ(t.bytes, f.bytes);
  EXPECT_EQ(t.matches, f.sequential.size());
  // Hashing must actually spread this many flows over 4 shards.
  std::size_t active = 0;
  for (const auto& s : pipe.stats()) active += s.packets > 0 ? 1 : 0;
  EXPECT_GT(active, 1u);
  EXPECT_LE(t.max_queue_depth, 4096u);
}

TEST(ShardedInspector, PacketsLandOnTheirHashedShard) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 4;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  // Predict each shard's packet count from the dispatch hash alone.
  std::vector<std::uint64_t> expect(4, 0);
  f.trace.for_each_packet(
      [&](const flow::Packet& p) { ++expect[pipe.shard_of(p.key)]; });
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  for (std::size_t i = 0; i < 4; ++i)
    EXPECT_EQ(pipe.stats()[i].packets, expect[i]) << "shard " << i;
}

TEST(ShardedInspector, PortsAloneSpreadFlowsOverShards) {
  // All flows between one host pair, differing only in their ports, must
  // not pile onto one shard: none may get under half its fair share.
  auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  constexpr std::size_t kFlows = 256;
  for (const std::size_t shards : {2u, 4u}) {
    Options opt;
    opt.shards = shards;
    ShardedInspector<core::Mfa> pipe(*m, opt);
    std::vector<std::size_t> per_shard(shards, 0);
    for (std::size_t i = 0; i < kFlows; ++i) {
      const flow::FlowKey key{0x0a000001, 0x0a000002,
                              static_cast<std::uint16_t>(40000 + i),
                              static_cast<std::uint16_t>(80 + i % 4), 6};
      ++per_shard[pipe.shard_of(key)];
    }
    for (std::size_t s = 0; s < shards; ++s)
      EXPECT_GE(per_shard[s] * 2 * shards, kFlows) << shards << " shards, shard " << s;
  }
}

TEST(ShardedInspector, FlowCapEvictsPerShard) {
  auto m = core::build_mfa(compile_patterns({".*needle"}));
  ASSERT_TRUE(m.has_value());
  Options opt;
  opt.shards = 2;
  opt.max_flows_per_shard = 8;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const std::string payload = "a needle here";
  for (std::uint32_t i = 0; i < 100; ++i) {
    flow::Packet p{flow::FlowKey{i, 1, 2, 3, 6}, 0,
                   reinterpret_cast<const std::uint8_t*>(payload.data()),
                   static_cast<std::uint32_t>(payload.size())};
    pipe.submit(p);
  }
  pipe.finish();
  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.matches, 100u);  // eviction never loses in-flight single packets
  EXPECT_LE(t.flows, 16u);     // 8 per shard
  EXPECT_EQ(t.flows + t.evictions, 100u);
}

TEST(ShardedInspector, TinyQueueStillDeliversEverything) {
  // Queue capacity far below the packet count forces submit() backpressure.
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  EXPECT_EQ(pipe.totals().packets, f.packets);
  EXPECT_EQ(pipe.totals().matches, f.sequential.size());
  EXPECT_LE(pipe.totals().max_queue_depth, 4u);
}

TEST(ShardedInspector, LiveSnapshotWhileScanning) {
  // The acceptance scenario from DESIGN.md Sec. 8: with workers actively
  // scanning, snapshot() must return non-zero, internally consistent
  // counters, and after finish() the telemetry must agree exactly with the
  // merged ShardStats.
  const Fixture f = make_fixture();
  obs::MetricsRegistry registry(
      {.shards = 4, .match_id_capacity = 64, .trace_capacity = 256});
  Options opt;
  opt.shards = 4;
  opt.metrics = &registry;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  EXPECT_TRUE(pipe.telemetry_enabled());
  pipe.start();

  std::vector<flow::Packet> packets;
  f.trace.for_each_packet([&](const flow::Packet& p) { packets.push_back(p); });
  const std::size_t half = packets.size() / 2;
  for (std::size_t i = 0; i < half; ++i) pipe.submit(packets[i]);

  // Poll mid-run until the workers have visibly progressed. Counters are
  // monotonic, so every observed value is a lower bound on the final one.
  obs::RegistrySnapshot mid = pipe.snapshot();
  while (mid.totals().packets == 0) {
    std::this_thread::yield();
    mid = pipe.snapshot();
  }
  for (const obs::ShardSnapshot& s : mid.shards) {
    // packets is incremented before the scan timer fires, and the snapshot
    // reads packets first, so packets can lead scan_ns.count by at most the
    // one packet in flight — never trail it by more.
    EXPECT_LE(s.packets, s.scan_ns.count + 1);
    EXPECT_LE(s.packets, f.packets);
    EXPECT_LE(s.bytes, f.bytes);
    EXPECT_GE(s.packet_bytes.count, s.scan_ns.count);
  }
  EXPECT_LE(mid.totals().matches, f.sequential.size());

  for (std::size_t i = half; i < packets.size(); ++i) pipe.submit(packets[i]);
  const obs::RegistrySnapshot later = pipe.snapshot();
  EXPECT_GE(later.totals().packets, mid.totals().packets);  // monotone
  pipe.finish();

  const obs::RegistrySnapshot fin = pipe.snapshot();
  const obs::ShardSnapshot t = fin.totals();
  EXPECT_EQ(t.packets, f.packets);
  EXPECT_EQ(t.bytes, f.bytes);
  EXPECT_EQ(t.matches, f.sequential.size());
  EXPECT_EQ(t.scan_ns.count, f.packets);
  EXPECT_EQ(t.packet_bytes.sum, f.bytes);
  std::uint64_t hits = 0;
  for (const auto& [id, count] : fin.match_counts) hits += count;
  EXPECT_EQ(hits + fin.match_id_overflow, f.sequential.size());
  EXPECT_EQ(fin.trace_recorded, f.sequential.size());

  // Shard i of the pipeline writes registry slot i (4 shards each), so the
  // two accounting paths must agree exactly per shard.
  ASSERT_EQ(pipe.stats().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const ShardStats& st = pipe.stats()[i];
    const obs::ShardSnapshot& s = fin.shards[i];
    EXPECT_EQ(s.packets, st.packets) << "shard " << i;
    EXPECT_EQ(s.bytes, st.bytes) << "shard " << i;
    EXPECT_EQ(s.matches, st.matches) << "shard " << i;
    EXPECT_EQ(s.flows, st.flows) << "shard " << i;
    EXPECT_EQ(s.evictions, st.evictions) << "shard " << i;
    EXPECT_EQ(s.reassembly_drops, st.reassembly_drops) << "shard " << i;
    EXPECT_EQ(s.queue_full_spins, st.queue_full_spins) << "shard " << i;
  }
}

TEST(ShardedInspector, BackpressureSpinsCounted) {
  // A queue far smaller than the packet count forces the producer to spin;
  // those spins must surface both in ShardStats and in the registry.
  const Fixture f = make_fixture();
  obs::MetricsRegistry registry(2);
  Options opt;
  opt.shards = 2;
  opt.queue_capacity = 4;
  opt.metrics = &registry;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  const ShardStats t = pipe.totals();
  EXPECT_EQ(t.packets, f.packets);
  EXPECT_GT(t.queue_full_spins, 0u);
  const obs::ShardSnapshot reg = pipe.snapshot().totals();
  EXPECT_EQ(reg.queue_full_spins, t.queue_full_spins);
  EXPECT_EQ(reg.max_queue_depth, t.max_queue_depth);
  EXPECT_EQ(reg.queue_depth.count, f.packets);  // sampled at every submit
}

TEST(ShardedInspector, RestartAfterFinishStartsClean) {
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  for (int round = 0; round < 2; ++round) {
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    EXPECT_EQ(pipe.totals().packets, f.packets) << "round " << round;
    EXPECT_EQ(pipe.totals().matches, f.sequential.size()) << "round " << round;
  }
}

TEST(ShardedInspector, SubmitOutsideStartFinishThrows) {
  // Regression: submit() used to index shards_ unconditionally; before
  // start() the vector is empty, so the modulo indexed into nothing (UB).
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  const flow::Packet p{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                       reinterpret_cast<const std::uint8_t*>("x"), 1};
  EXPECT_THROW(pipe.submit(p), std::logic_error);
  pipe.start();
  pipe.submit(p);
  pipe.finish();
  EXPECT_THROW(pipe.submit(p), std::logic_error);
  // And the pipeline still restarts cleanly after the misuse.
  pipe.start();
  pipe.submit(p);
  pipe.finish();
  EXPECT_EQ(pipe.totals().packets, 1u);
}

TEST(ShardedInspector, BatchSizeOneBehavesLikeUnbatched) {
  // batch_size=1 must flush every submit immediately and still match the
  // sequential reference (the pre-batching behavior as a special case).
  const Fixture f = make_fixture();
  Options opt;
  opt.shards = 2;
  opt.batch_size = 1;
  opt.collect_matches = true;
  ShardedInspector<core::Mfa> pipe(f.mfa, opt);
  pipe.start();
  f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
  pipe.finish();
  EXPECT_EQ(pipe.merged_matches(), f.sequential);
  EXPECT_EQ(pipe.totals().packets, f.packets);
}

TEST(ShardedInspector, LargeBatchAndLaneSweepMatchesSequential) {
  const Fixture f = make_fixture();
  for (const std::size_t lanes : {1u, 4u, 16u}) {
    Options opt;
    opt.shards = 2;
    opt.batch_size = 128;
    opt.scan_lanes = lanes;
    opt.collect_matches = true;
    ShardedInspector<core::Mfa> pipe(f.mfa, opt);
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    EXPECT_EQ(pipe.merged_matches(), f.sequential) << "lanes " << lanes;
  }
}

TEST(ShardedInspector, LonePacketScannedBeforeFinish) {
  // submit() holds nothing back: with the default batch_size one packet on
  // a quiet link is scanned, and its alert raised, without 31 more packets
  // behind it and without finish().
  auto m = core::build_mfa(compile_patterns({".*worm77"}));
  ASSERT_TRUE(m.has_value());
  obs::MetricsRegistry registry(2);
  Options opt;
  opt.shards = 2;
  opt.metrics = &registry;
  ASSERT_EQ(opt.batch_size, 32u);
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const std::string payload = "a worm77 here";
  pipe.submit(flow::Packet{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(payload.data()),
                           static_cast<std::uint32_t>(payload.size())});
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  obs::ShardSnapshot live = pipe.snapshot().totals();
  while (live.packets == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
    live = pipe.snapshot().totals();
  }
  EXPECT_EQ(live.packets, 1u);
  EXPECT_EQ(live.matches, 1u);
  pipe.finish();
  EXPECT_EQ(pipe.totals().scanned, 1u);
}

TEST(ShardedInspector, BurstsStillFillUpBehindASlowWorker) {
  // A 4 MiB packet keeps the lone worker scanning for milliseconds while
  // the small packets behind it pile up in the ring; the worker then pops
  // them in full bursts of batch_size, never larger. Every packet carries
  // a span, and the packets of one burst share its dequeue stamp.
  auto m = core::build_mfa(compile_patterns({".*worm77"}));
  ASSERT_TRUE(m.has_value());
  constexpr std::size_t kSmall = 256;
  obs::MetricsRegistry registry({.shards = 1, .span_capacity = 1024});
  Options opt;
  opt.shards = 1;
  opt.metrics = &registry;
  opt.trace_sample_shift = 0;
  ShardedInspector<core::Mfa> pipe(*m, opt);
  pipe.start();
  const std::string big(std::size_t{4} << 20, 'a');
  const std::string small = "worm77";
  pipe.submit(flow::Packet{flow::FlowKey{1, 2, 3, 4, 6}, 0,
                           reinterpret_cast<const std::uint8_t*>(big.data()),
                           static_cast<std::uint32_t>(big.size())});
  for (std::uint32_t i = 0; i < kSmall; ++i)
    pipe.submit(flow::Packet{flow::FlowKey{10 + i, 2, 3, 4, 6}, 0,
                             reinterpret_cast<const std::uint8_t*>(small.data()),
                             static_cast<std::uint32_t>(small.size())});
  pipe.finish();
  EXPECT_EQ(pipe.totals().matches, kSmall);
  std::map<std::uint64_t, std::size_t> burst_sizes;
  const auto spans = registry.spans().drain();
  ASSERT_EQ(spans.size(), kSmall + 1);
  for (const auto& e : spans) ++burst_sizes[e.dequeue_tsc];
  std::size_t largest = 0;
  for (const auto& [tsc, n] : burst_sizes) largest = std::max(largest, n);
  EXPECT_EQ(largest, opt.batch_size);
}

TEST(ShardedInspector, ShedAccountingAndFlowParityAtEveryBatchSize) {
  // Drop-newest over a small ring: whatever is shed, every submitted
  // packet is scanned or shed, and every flow that lost no packet matches
  // exactly as on a sequential FlowInspector.
  const Fixture f = make_fixture();
  std::unordered_map<flow::FlowKey, MatchVec, flow::FlowKeyHash> reference;
  {
    flow::FlowInspector<core::Mfa> insp{f.mfa};
    f.trace.for_each_packet([&](const flow::Packet& p) {
      insp.packet(p, [&](std::uint32_t id, std::uint64_t end) {
        reference[p.key].push_back(Match{id, end});
      });
    });
  }
  for (const std::size_t batch : {1u, 32u, 128u}) {
    std::mutex mu;
    std::unordered_set<flow::FlowKey, flow::FlowKeyHash> shed_flows;
    Options opt;
    opt.shards = 2;
    opt.queue_capacity = 64;
    opt.batch_size = batch;
    opt.collect_flow_matches = true;
    opt.shed_policy = ShedPolicy::kDropNewest;
    opt.shed_sink = [&](const flow::Packet& p, ShedReason) {
      std::lock_guard<std::mutex> lock(mu);
      shed_flows.insert(p.key);
    };
    ShardedInspector<core::Mfa> pipe(f.mfa, opt);
    pipe.start();
    f.trace.for_each_packet([&](const flow::Packet& p) { pipe.submit(p); });
    pipe.finish();
    EXPECT_EQ(pipe.totals().submitted, f.packets) << "batch " << batch;
    for (const ShardStats& st : pipe.stats())
      EXPECT_EQ(st.submitted, st.scanned + st.shed_total()) << "batch " << batch;
    std::unordered_map<flow::FlowKey, MatchVec, flow::FlowKeyHash> got;
    for (const FlowMatch& fm : pipe.flow_matches()) got[fm.key].push_back(fm.match);
    for (const auto& [key, want] : reference) {
      if (shed_flows.count(key) != 0) continue;
      const auto it = got.find(key);
      MatchVec have = it == got.end() ? MatchVec{} : it->second;
      std::sort(have.begin(), have.end());
      MatchVec sorted_want = want;
      std::sort(sorted_want.begin(), sorted_want.end());
      EXPECT_EQ(have, sorted_want) << "batch " << batch;
    }
    for (const auto& [key, have] : got)
      EXPECT_TRUE(reference.count(key) != 0 || shed_flows.count(key) != 0)
          << "batch " << batch << ": matches on a flow with none";
  }
}

}  // namespace
}  // namespace mfa::pipeline
