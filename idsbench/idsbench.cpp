// IDS benchmark for the sharded MFA pipeline.
//
// One binary, one workload per invocation. It plays a sensor end to end
// through the public API:
//
//   rule text / builtin set -> patterns -> core::build_mfa
//     -> pipeline::ShardedInspector (1 producer, 2 shards)
//     -> flow::TieredFlowInspector -> prefilter gate -> DFA + filter
//     -> match totals
//
// and checks every round's output against references computed apart from
// the code under test (an NFA oracle on sampled whole flows, planted
// exemplar recall, and exact conservation of packets, bytes and matches).
//
// Usage:
//   idsbench --workload NAME --seed N --seconds S --trace 0|1
//   idsbench --selftest          (shows that each output check can fail)
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones;
// either way the last stdout line is one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// See README.md in this directory for workloads, metrics and seeds.
#include <malloc.h>
#include <time.h>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "eval/harness.h"
#include "mfa/mfa.h"
#include "nfa/nfa.h"
#include "patterns/builtin.h"
#include "pipeline/pipeline.h"
#include "regex/sample.h"
#include "rules/rules.h"
#include "rules/ruleset_gen.h"
#include "trace/trace.h"
#include "util/rng.h"
#include "util/timing.h"

// --- live-heap hook --------------------------------------------------------
// Every operator new/delete of this process is counted with
// malloc_usable_size, so allocator slack is included (same method as
// bench/bench_flows.cpp). g_peak is the high-water mark since the last
// reset_peak().

namespace {

std::atomic<std::size_t> g_live{0};
std::atomic<std::size_t> g_peak{0};

std::size_t live_bytes() { return g_live.load(std::memory_order_relaxed); }

void reset_peak() { g_peak.store(live_bytes(), std::memory_order_relaxed); }

std::size_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc{};
  const std::size_t got = malloc_usable_size(p);
  const std::size_t now = g_live.fetch_add(got, std::memory_order_relaxed) + got;
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (now > peak &&
         !g_peak.compare_exchange_weak(peak, now, std::memory_order_relaxed)) {
  }
  return p;
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  g_live.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }

namespace {

using namespace mfa;
using Clock = std::chrono::steady_clock;
using Pipeline = pipeline::ShardedInspector<core::Mfa>;

constexpr std::size_t kShards = 2;
constexpr std::size_t kBurst = 32;           // single-thread replay burst size
constexpr double kOpenLoopRate = 100000.0;   // packets per second, offered
constexpr std::size_t kLatencyRoundPackets = 20000;
constexpr std::size_t kMaxPlants = 256;
constexpr std::uint32_t kRulesetSeed = 42;
constexpr std::size_t kRulesetSize = 1000;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#endif
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + salt;
  return util::splitmix64(s);
}

/// Linear-interpolated quantile of `v` (copied, so callers keep order).
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

// --- workloads -------------------------------------------------------------

struct Part {
  trace::RealLifeProfile profile;
  double share;  ///< fraction of the workload's bytes from this profile
};

struct Spec {
  const char* name;
  const char* ruleset;  ///< builtin set name, or "snort1k"
  std::vector<Part> parts;
  std::size_t bytes;                ///< generated payload bytes
  std::size_t max_subflow_packets;  ///< 0 keeps generator flows whole
  std::size_t concurrency;          ///< flows in flight in the interleave
  double reorder_share;             ///< flows with one swapped segment pair
  bool open_loop;                   ///< the whole run is offered open loop
  std::size_t oracle_bytes;         ///< NFA oracle budget (whole flows)
};

std::vector<Spec> all_specs() {
  using P = trace::RealLifeProfile;
  return {
      {"c8-cdx", "C8", {{P::kCyberDefense, 0.75}, {P::kCyberDefenseNoisy, 0.25}},
       64u << 20, 0, 24, 0.0, false, 2u << 20},
      {"c10-100kflows", "C10", {{P::kDarpa, 1.0}}, 128u << 20, 2, 100000, 0.0,
       false, 2u << 20},
      {"snort1k-reorder", "snort1k", {{P::kDarpa, 1.0}}, 64u << 20, 0, 24, 0.10,
       false, 128u << 10},
      {"c10-openloop", "C10", {{P::kDarpa, 1.0}}, 40u << 20, 0, 24, 0.0, true,
       2u << 20},
  };
}

// --- set-up: rule text -> MFA -> started pipeline ---------------------------

struct Engine {
  patterns::PatternSet set;  ///< parsed patterns (ids as the engine reports)
  std::optional<core::Mfa> mfa;
  double parse_s = 0.0;
  double build_s = 0.0;
  double start_s = 0.0;
  double setup_s = 0.0;
  std::size_t heap_bytes = 0;  ///< live heap the compiled MFA holds
};

/// The sensor's pipeline: 2 shards, backpressure (nothing shed), default
/// batching. With a registry attached every packet carries a latency span.
pipeline::Options sensor_options(obs::MetricsRegistry* registry) {
  pipeline::Options o;
  o.shards = kShards;
  o.shed_policy = pipeline::ShedPolicy::kBackpressure;
  if (registry != nullptr) {
    o.metrics = registry;
    o.trace_sample_shift = 0;
  }
  return o;
}

std::size_t pow2_at_least(std::size_t n) {
  std::size_t c = 2;
  while (c < n) c <<= 1;
  return c;
}

std::unique_ptr<obs::MetricsRegistry> make_registry(std::size_t span_slots) {
  obs::MetricsRegistry::Options ro;
  ro.shards = kShards;
  ro.span_capacity = pow2_at_least(span_slots);
  return std::make_unique<obs::MetricsRegistry>(ro);
}

/// The cold set-up a sensor pays once: parse, compile, then construct and
/// start the pipeline it will run. The rule text is an input, made before
/// the clock starts.
bool set_up(const Spec& spec, Engine& e) {
  std::string rule_text;
  if (std::strcmp(spec.ruleset, "snort1k") == 0) {
    rules::RulesetGenOptions g;
    g.rules = kRulesetSize;
    g.seed = kRulesetSeed;
    rule_text = rules::generate_ruleset(g);
  }
  const auto t0 = Clock::now();
  if (rule_text.empty()) {
    e.set = patterns::set_by_name(spec.ruleset);
  } else {
    const rules::LoadResult loaded = rules::parse_rules(rule_text);
    if (!loaded.ok()) {
      std::fprintf(stderr, "idsbench: %zu rule(s) failed to parse\n",
                   loaded.errors.size());
      return false;
    }
    e.set.name = spec.ruleset;
    e.set.patterns = rules::to_pattern_inputs(loaded.rules);
  }
  e.parse_s = seconds_since(t0);
  const std::size_t heap0 = live_bytes();
  const auto t1 = Clock::now();
  e.mfa = core::build_mfa(e.set.patterns);
  e.build_s = seconds_since(t1);
  if (!e.mfa) {
    std::fprintf(stderr, "idsbench: build_mfa failed for %s\n", spec.ruleset);
    return false;
  }
  e.heap_bytes = live_bytes() - heap0;
  const auto t2 = Clock::now();
  std::unique_ptr<obs::MetricsRegistry> registry;
  if (spec.open_loop) registry = make_registry(kLatencyRoundPackets);
  {
    Pipeline pipe(*e.mfa, sensor_options(registry.get()));
    pipe.start();
    e.start_s = seconds_since(t2);
    e.setup_s = seconds_since(t0);
    pipe.finish();
  }
  return true;
}

// --- traffic ---------------------------------------------------------------

struct Flow {
  flow::FlowKey key;
  std::uint64_t offset = 0;  ///< payload start in Traffic::arena
  std::uint32_t length = 0;
  std::uint32_t first_packet = 0;  ///< index into Traffic::packet_lengths
  std::uint32_t packet_count = 0;
};

/// An exemplar the benchmark spliced into a flow: the engine must report
/// (flow, id, end).
struct Plant {
  std::uint32_t flow = 0;
  std::uint32_t id = 0;
  std::uint64_t end = 0;
};

struct Traffic {
  std::vector<std::uint8_t> arena;
  std::vector<Flow> flows;
  std::vector<std::uint32_t> packet_lengths;  ///< flow order
  std::vector<flow::Packet> packets;          ///< submission order
  std::vector<Plant> plants;
  std::size_t reordered_flows = 0;
  std::unordered_map<flow::FlowKey, std::uint32_t, flow::FlowKeyHash> index;

  [[nodiscard]] const std::uint8_t* data(const Flow& f) const {
    return arena.data() + f.offset;
  }
};

std::size_t draw_packet_size(util::Rng& rng) { return 200 + rng.below(1261); }

/// A flow's key and whole payload, as the trace generator made it.
struct GenFlow {
  flow::FlowKey key;
  std::string payload;
};

/// Whole flows from the repository's real-life trace generator, in the
/// order each flow first appears, with the generator's own flow keys. Part
/// i's source addresses move up by i << 20 (an even step, so the shard a key
/// hashes to is unchanged) to keep the parts' flows apart.
std::vector<GenFlow> generated_flows(const Spec& spec, const Engine& e,
                                     std::uint64_t seed) {
  std::vector<GenFlow> out;
  const std::vector<std::string> exemplars =
      eval::attack_exemplars(e.set, 2, mix_seed(seed, 11));
  for (std::size_t i = 0; i < spec.parts.size(); ++i) {
    const Part& part = spec.parts[i];
    const auto bytes = static_cast<std::size_t>(static_cast<double>(spec.bytes) * part.share);
    const trace::Trace t =
        trace::make_real_life(part.profile, bytes, mix_seed(seed, 100 + i), exemplars);
    std::unordered_map<flow::FlowKey, std::size_t, flow::FlowKeyHash> slot;
    t.for_each_packet([&](const flow::Packet& p) {
      auto [it, fresh] = slot.try_emplace(p.key, out.size());
      if (fresh) {
        flow::FlowKey k = p.key;
        k.src_ip += static_cast<std::uint32_t>(i << 20);
        out.push_back(GenFlow{k, {}});
      }
      out[it->second].payload.append(reinterpret_cast<const char*>(p.payload), p.length);
    });
  }
  return out;
}

/// Exemplars for planting: a string sampled from one unanchored pattern's
/// language, confirmed by the NFA oracle to report (id, size - 1) on its own.
struct Exemplar {
  std::uint32_t id = 0;
  std::string text;
};

std::vector<Exemplar> plant_exemplars(const Engine& e, const nfa::Nfa& oracle,
                                      std::uint64_t seed, std::size_t want) {
  std::vector<const nfa::PatternInput*> pool;
  for (const auto& p : e.set.patterns)
    if (!p.regex.anchored) pool.push_back(&p);
  std::vector<Exemplar> out;
  if (pool.empty()) return out;
  util::Rng rng(mix_seed(seed, 21));
  nfa::NfaScanner scanner(oracle);
  for (std::size_t tries = 0; out.size() < want && tries < want * 8; ++tries) {
    const nfa::PatternInput& p = *pool[rng.below(pool.size())];
    std::string s = regex::sample_match(p.regex, rng);
    if (s.empty() || s.size() > 512) continue;
    const MatchVec m = scanner.scan(s);
    const Match want_match{p.id, s.size() - 1};
    if (std::find(m.begin(), m.end(), want_match) == m.end()) continue;
    out.push_back(Exemplar{p.id, std::move(s)});
  }
  return out;
}

Traffic make_traffic(const Spec& spec, const Engine& e, const nfa::Nfa& oracle,
                     std::uint64_t seed) {
  Traffic t;
  util::Rng rng(mix_seed(seed, 31));
  std::vector<GenFlow> gen = generated_flows(spec, e, seed);

  // Cut generator flows into short sub-flows of 1..max packets' worth of
  // bytes: many more flows from the same bytes, each still in order. Sub-flow
  // j keeps its parent's addresses and takes source port + j.
  if (spec.max_subflow_packets != 0) {
    std::vector<GenFlow> cut;
    for (GenFlow& g : gen) {
      std::size_t at = 0;
      for (std::uint16_t j = 0; at < g.payload.size(); ++j) {
        const std::size_t npk = 1 + rng.below(spec.max_subflow_packets);
        std::size_t len = 0;
        for (std::size_t k = 0; k < npk; ++k) len += draw_packet_size(rng);
        len = std::min(len, g.payload.size() - at);
        flow::FlowKey k = g.key;
        k.src_port = static_cast<std::uint16_t>(k.src_port + j);
        cut.push_back(GenFlow{k, g.payload.substr(at, len)});
        at += len;
      }
      std::string().swap(g.payload);
    }
    gen = std::move(cut);
  }
  gen.erase(std::remove_if(gen.begin(), gen.end(),
                           [](const GenFlow& g) { return g.payload.empty(); }),
            gen.end());

  // Splice tracked exemplars into a seeded choice of flows.
  const std::size_t want_plants = std::min(kMaxPlants, gen.size() / 4 + 1);
  const std::vector<Exemplar> ex = plant_exemplars(e, oracle, seed, want_plants);
  for (const Exemplar& x : ex) {
    const auto f = static_cast<std::uint32_t>(rng.below(gen.size()));
    std::string& p = gen[f].payload;
    // Plants never overlap one another: later plants go after earlier ones
    // in the same flow, so every recorded end offset stays valid.
    std::uint64_t min_at = 0;
    for (const Plant& q : t.plants)
      if (q.flow == f) min_at = std::max(min_at, q.end + 1);
    const std::size_t at = min_at + rng.below(p.size() - min_at + 1);
    p.insert(at, x.text);
    t.plants.push_back(Plant{f, x.id, at + x.text.size() - 1});
  }

  // Arena + packetization in flow order.
  std::size_t total = 0;
  for (const GenFlow& g : gen) total += g.payload.size();
  t.arena.reserve(total);
  t.flows.reserve(gen.size());
  for (std::size_t i = 0; i < gen.size(); ++i) {
    Flow f;
    f.key = gen[i].key;
    // Keys stay unique: on the rare clash, move the source port (the
    // generator draws ports at random too).
    while (t.index.count(f.key) != 0) ++f.key.src_port;
    f.offset = t.arena.size();
    f.length = static_cast<std::uint32_t>(gen[i].payload.size());
    f.first_packet = static_cast<std::uint32_t>(t.packet_lengths.size());
    t.arena.insert(t.arena.end(), gen[i].payload.begin(), gen[i].payload.end());
    std::string().swap(gen[i].payload);
    for (std::size_t sent = 0; sent < f.length;) {
      const std::size_t len = std::min(draw_packet_size(rng), f.length - sent);
      t.packet_lengths.push_back(static_cast<std::uint32_t>(len));
      sent += len;
    }
    f.packet_count = static_cast<std::uint32_t>(t.packet_lengths.size()) - f.first_packet;
    t.index.emplace(f.key, static_cast<std::uint32_t>(i));
    t.flows.push_back(f);
  }

  // Interleave: keep `concurrency` flows in flight, emit the next segment of
  // a random one. A reordered flow sends one adjacent segment pair swapped.
  struct Active {
    std::uint32_t flow;
    std::uint32_t next = 0;      ///< segments emitted so far
    std::uint32_t swap_at = ~0u; ///< emit segment swap_at+1 before swap_at
  };
  std::vector<std::uint64_t> seq_of(t.packet_lengths.size());
  for (const Flow& f : t.flows) {
    std::uint64_t s = 0;
    for (std::uint32_t k = 0; k < f.packet_count; ++k) {
      seq_of[f.first_packet + k] = s;
      s += t.packet_lengths[f.first_packet + k];
    }
  }
  std::vector<Active> active;
  std::size_t next_flow = 0;
  t.packets.reserve(t.packet_lengths.size());
  while (next_flow < t.flows.size() || !active.empty()) {
    while (active.size() < spec.concurrency && next_flow < t.flows.size()) {
      Active a{static_cast<std::uint32_t>(next_flow++)};
      const Flow& f = t.flows[a.flow];
      if (spec.reorder_share > 0.0 && f.packet_count >= 2 &&
          rng.chance(spec.reorder_share)) {
        a.swap_at = static_cast<std::uint32_t>(rng.below(f.packet_count - 1));
        ++t.reordered_flows;
      }
      active.push_back(a);
    }
    const std::size_t pick = rng.below(active.size());
    Active& a = active[pick];
    const Flow& f = t.flows[a.flow];
    std::uint32_t k = a.next;
    if (a.swap_at != ~0u) {
      if (k == a.swap_at) k = a.swap_at + 1;
      else if (k == a.swap_at + 1) k = a.swap_at;
    }
    const std::uint32_t pi = f.first_packet + k;
    t.packets.push_back(flow::Packet{f.key, seq_of[pi],
                                     t.arena.data() + f.offset + seq_of[pi],
                                     t.packet_lengths[pi]});
    if (++a.next == f.packet_count) {
      active[pick] = active.back();
      active.pop_back();
    }
  }
  return t;
}

// --- references and checks ---------------------------------------------------

/// Single-thread replay through one TieredFlowInspector in bursts of
/// kBurst, in submission order; returns the match total.
std::uint64_t replay_total(const core::Mfa& mfa, const flow::Packet* pkts,
                           std::size_t n, bool gate) {
  flow::TieredFlowInspector<core::Mfa> insp(mfa);
  insp.set_prefilter(gate);
  CountingSink sink;
  for (std::size_t i = 0; i < n; i += kBurst)
    insp.packet_batch(pkts + i, std::min(kBurst, n - i), sink);
  return sink.count;
}

using FlowMatches = std::vector<MatchVec>;  ///< per flow index, sorted

FlowMatches group_by_flow(const Traffic& t,
                          const std::vector<pipeline::FlowMatch>& got,
                          bool& unknown_flow) {
  FlowMatches out(t.flows.size());
  unknown_flow = false;
  for (const pipeline::FlowMatch& fm : got) {
    const auto it = t.index.find(fm.key);
    if (it == t.index.end()) {
      unknown_flow = true;
      continue;
    }
    out[it->second].push_back(fm.match);
  }
  for (MatchVec& v : out) std::sort(v.begin(), v.end());
  return out;
}

/// NFA oracle sample: every planted flow that fits the budget first, then
/// seeded random flows, whole flows only.
std::vector<std::uint32_t> oracle_sample(const Spec& spec, const Traffic& t,
                                         std::uint64_t seed) {
  std::vector<std::uint32_t> order;
  std::vector<char> taken(t.flows.size(), 0);
  for (const Plant& p : t.plants)
    if (!taken[p.flow]) {
      taken[p.flow] = 1;
      order.push_back(p.flow);
    }
  util::Rng rng(mix_seed(seed, 41));
  const std::size_t planted = order.size();
  std::shuffle(order.begin(), order.end(), rng);
  std::vector<std::uint32_t> rest;
  for (std::uint32_t i = 0; i < t.flows.size(); ++i)
    if (!taken[i]) rest.push_back(i);
  std::shuffle(rest.begin(), rest.end(), rng);
  order.insert(order.end(), rest.begin(), rest.end());
  std::vector<std::uint32_t> out;
  std::size_t budget = spec.oracle_bytes;
  std::size_t planted_taken = 0;
  for (std::size_t i = 0; i < order.size() && budget > 0; ++i) {
    const Flow& f = t.flows[order[i]];
    // Half the budget at most for planted flows, so random flows are
    // always part of the sample.
    if (i < planted && planted_taken + f.length > spec.oracle_bytes / 2) continue;
    if (f.length > budget) continue;
    budget -= f.length;
    if (i < planted) planted_taken += f.length;
    out.push_back(order[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

struct Oracle {
  std::vector<std::uint32_t> flows;
  FlowMatches expected;  ///< parallel to `flows`
  std::size_t bytes = 0;
};

Oracle run_oracle(const Spec& spec, const Traffic& t, const nfa::Nfa& nfa,
                  std::uint64_t seed) {
  Oracle o;
  o.flows = oracle_sample(spec, t, seed);
  nfa::NfaScanner scanner(nfa);
  for (std::uint32_t fi : o.flows) {
    const Flow& f = t.flows[fi];
    MatchVec m = scanner.scan(t.data(f), f.length);
    std::sort(m.begin(), m.end());
    o.expected.push_back(std::move(m));
    o.bytes += f.length;
  }
  return o;
}

/// Check (a): the pipeline's per-flow match set equals the NFA's on every
/// sampled flow.
bool check_oracle(const Oracle& o, const FlowMatches& got, std::string& why) {
  for (std::size_t i = 0; i < o.flows.size(); ++i) {
    const MatchVec& g = got[o.flows[i]];
    const MatchVec& want = o.expected[i];
    if (g != want) {
      const auto [a, b] = std::mismatch(g.begin(), g.end(), want.begin(), want.end());
      const auto show = [](const MatchVec& v, MatchVec::const_iterator it) {
        return it == v.end() ? std::string("nothing")
                             : "(" + std::to_string(it->id) + ", " +
                                   std::to_string(it->end) + ")";
      };
      why = "flow " + std::to_string(o.flows[i]) + ": pipeline reported " +
            show(g, a) + " where the NFA oracle reports " + show(want, b);
      return false;
    }
  }
  return true;
}

/// Check (b): every planted exemplar's (flow, id, end) was reported.
bool check_recall(const std::vector<Plant>& plants, const FlowMatches& got,
                  std::string& why) {
  for (const Plant& p : plants) {
    const MatchVec& v = got[p.flow];
    if (!std::binary_search(v.begin(), v.end(), Match{p.id, p.end})) {
      why = "planted exemplar id " + std::to_string(p.id) + " at flow " +
            std::to_string(p.flow) + " end " + std::to_string(p.end) +
            " was not reported";
      return false;
    }
  }
  return true;
}

/// Check (c), per round: nothing shed, every packet scanned, every payload
/// byte counted, and the match total equals the single-thread replay's.
bool check_conservation(const pipeline::ShardStats& s, std::size_t packets,
                        std::uint64_t bytes, std::uint64_t expected_matches,
                        std::string& why) {
  char buf[256];
  if (s.submitted != packets || s.scanned != packets || s.shed_total() != 0 ||
      s.reassembly_drops != 0) {
    std::snprintf(buf, sizeof buf,
                  "packets: %zu offered, %llu submitted, %llu scanned, %llu shed, "
                  "%llu reassembly drops",
                  packets, static_cast<unsigned long long>(s.submitted),
                  static_cast<unsigned long long>(s.scanned),
                  static_cast<unsigned long long>(s.shed_total()),
                  static_cast<unsigned long long>(s.reassembly_drops));
    why = buf;
    return false;
  }
  if (s.bytes != bytes) {
    std::snprintf(buf, sizeof buf, "bytes: shards counted %llu, trace holds %llu",
                  static_cast<unsigned long long>(s.bytes),
                  static_cast<unsigned long long>(bytes));
    why = buf;
    return false;
  }
  if (s.matches != expected_matches) {
    std::snprintf(buf, sizeof buf,
                  "matches: pipeline %llu, single-thread replay %llu",
                  static_cast<unsigned long long>(s.matches),
                  static_cast<unsigned long long>(expected_matches));
    why = buf;
    return false;
  }
  return true;
}

// --- the run -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Run {
  const Spec* spec = nullptr;
  std::uint64_t seed = 0;
  double seconds = 10.0;

  Engine engine;
  std::optional<nfa::Nfa> nfa;
  Traffic traffic;
  std::uint64_t traffic_bytes = 0;
  std::uint64_t expected_matches = 0;     ///< whole trace
  std::size_t latency_packets = 0;        ///< open-loop round length
  std::uint64_t latency_bytes = 0;
  std::uint64_t expected_latency_matches = 0;

  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void fail(const char* what, const std::string& why) {
    if (correct) std::fprintf(stderr, "idsbench: CHECK FAILED (%s): %s\n", what, why.c_str());
    correct = false;
  }

  void account(const pipeline::ShardStats& s, std::size_t packets,
               std::uint64_t bytes, std::uint64_t expected, const char* what) {
    attempted += packets;
    failed += s.shed_total() + s.reassembly_drops;
    std::string why;
    if (!check_conservation(s, packets, bytes, expected, why)) fail(what, why);
  }

  void add(const char* name, double value, const char* unit) {
    metrics.push_back(Metric{name, value, unit});
  }
};

struct ClosedRound {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::size_t heap_bytes = 0;  ///< peak live heap beyond the round's baseline
  double submit_ns = 0.0;      ///< summed submit() time (timed rounds only)
  pipeline::ShardStats totals;
  std::vector<pipeline::ShardStats> shards;
  std::vector<pipeline::FlowMatch> flow_matches;
};

/// One closed-loop pass over the whole trace through a fresh pipeline.
ClosedRound closed_round(Run& r, obs::MetricsRegistry* registry, bool default_sampling,
                         bool collect, bool time_submit) {
  ClosedRound out;
  pipeline::Options o = sensor_options(registry);
  if (default_sampling) o.trace_sample_shift = pipeline::Options{}.trace_sample_shift;
  o.collect_flow_matches = collect;
  const std::size_t heap0 = live_bytes();
  {
    Pipeline pipe(*r.engine.mfa, o);
    pipe.start();
    const std::vector<flow::Packet>& pk = r.traffic.packets;
    reset_peak();
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    if (time_submit) {
      std::uint64_t ticks = 0;
      for (const flow::Packet& p : pk) {
        const std::uint64_t a = util::rdtsc_now();
        pipe.submit(p);
        ticks += util::rdtsc_now() - a;
      }
      out.submit_ns = static_cast<double>(ticks) * 1e9 / util::tsc_ticks_per_second();
    } else {
      for (const flow::Packet& p : pk) pipe.submit(p);
    }
    pipe.finish();
    out.seconds = seconds_since(t0);
    out.cpu_seconds = process_cpu_seconds() - cpu0;
    out.heap_bytes = peak_bytes() - heap0;
    out.totals = pipe.totals();
    out.shards = pipe.stats();
    if (collect) out.flow_matches = pipe.flow_matches();
  }
  r.account(out.totals, r.traffic.packets.size(), r.traffic_bytes, r.expected_matches,
            "closed-loop round");
  return out;
}

struct OpenRound {
  double seconds = 0.0;
  double cpu_seconds = 0.0;  ///< process CPU minus the generator's waiting
  std::size_t heap_bytes = 0;
  double submit_ns = 0.0;
  std::vector<double> latency_us;   ///< due time -> scan end, per packet
  std::vector<double> late_us;      ///< how late each submit() ran
  std::vector<double> queue_wait_us;
  std::vector<double> burst_scan_us;
  pipeline::ShardStats totals;
  std::vector<pipeline::ShardStats> shards;
};

/// One open-loop round: the first `n` packets offered at kOpenLoopRate on a
/// fixed schedule, whatever the pipeline does; every packet is span-stamped
/// and matched back to its due time through the span ring.
OpenRound open_round(Run& r, std::size_t n) {
  OpenRound out;
  auto registry = make_registry(n);
  const double tps = util::tsc_ticks_per_second();
  const double ticks_per_packet = tps / kOpenLoopRate;
  const double ns_per_tick = 1e9 / tps;
  const flow::Packet* pk = r.traffic.packets.data();
  std::vector<std::uint64_t> due(n);
  std::uint64_t wait_ticks = 0;
  std::uint64_t submit_ticks = 0;
  const std::size_t heap0 = live_bytes();
  {
    Pipeline pipe(*r.engine.mfa, sensor_options(registry.get()));
    pipe.start();
    reset_peak();
    const double cpu0 = process_cpu_seconds();
    const std::uint64_t start = util::rdtsc_now() + static_cast<std::uint64_t>(tps * 1e-3);
    out.late_us.resize(n);
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < n; ++i) {
      due[i] = start + static_cast<std::uint64_t>(static_cast<double>(i) * ticks_per_packet);
      std::uint64_t now = util::rdtsc_now();
      if (now < due[i]) {
        const std::uint64_t w0 = now;
        while ((now = util::rdtsc_now()) < due[i]) cpu_relax();
        wait_ticks += now - w0;
      }
      out.late_us[i] = static_cast<double>(now - due[i]) * ns_per_tick * 1e-3;
      pipe.submit(pk[i]);
      submit_ticks += util::rdtsc_now() - now;
    }
    pipe.finish();
    // The round's clock starts at the first due time, as the offered load
    // does; a late first submit counts against it.
    out.seconds = seconds_since(t0) - 1e-3;
    out.cpu_seconds = process_cpu_seconds() - cpu0 -
                      static_cast<double>(wait_ticks) * ns_per_tick * 1e-9;
    out.heap_bytes = peak_bytes() - heap0;
    out.submit_ns = static_cast<double>(submit_ticks) * ns_per_tick;
    out.totals = pipe.totals();
    out.shards = pipe.stats();
  }
  r.account(out.totals, n, r.latency_bytes, r.expected_latency_matches,
            "open-loop round");
  std::vector<obs::SpanTraceRing::Event> spans = registry->spans().drain();
  if (spans.size() != n || registry->spans().recorded() != n) {
    r.fail("open-loop spans", std::to_string(spans.size()) + " spans for " +
                                  std::to_string(n) + " scheduled packets");
    return out;
  }
  // submit() runs on one thread, so submit stamps order the spans exactly
  // as the packets were offered.
  std::sort(spans.begin(), spans.end(), [](const auto& a, const auto& b) {
    return a.submit_tsc < b.submit_tsc;
  });
  out.latency_us.resize(n);
  out.queue_wait_us.resize(n);
  out.burst_scan_us.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = spans[i];
    if (s.src_ip != pk[i].key.src_ip || s.src_port != pk[i].key.src_port) {
      r.fail("open-loop spans", "span " + std::to_string(i) + " belongs to another packet");
      return out;
    }
    const auto us = [&](std::uint64_t from, std::uint64_t to) {
      return to > from ? static_cast<double>(to - from) * ns_per_tick * 1e-3 : 0.0;
    };
    out.latency_us[i] = us(due[i], s.scan_end_tsc);
    out.queue_wait_us[i] = us(s.submit_tsc, s.dequeue_tsc);
    out.burst_scan_us[i] = us(s.scan_start_tsc, s.scan_end_tsc);
  }
  return out;
}

/// Check round: a pipeline pass with flow-attributed matches, compared with
/// the NFA oracle (a) and the planted exemplars (b); the round itself passes
/// check (c) like every other.
void check_round(Run& r) {
  ClosedRound cr = closed_round(r, nullptr, false, true, false);
  bool unknown = false;
  const FlowMatches got = group_by_flow(r.traffic, cr.flow_matches, unknown);
  if (unknown) r.fail("flow attribution", "a match names a flow not in the trace");
  const Oracle o = run_oracle(*r.spec, r.traffic, *r.nfa, r.seed);
  std::string why;
  if (!check_oracle(o, got, why)) r.fail("NFA oracle", why);
  if (!check_recall(r.traffic.plants, got, why)) r.fail("exemplar recall", why);
  std::uint64_t planted_in_sample = 0;
  for (const Plant& p : r.traffic.plants)
    planted_in_sample += std::binary_search(o.flows.begin(), o.flows.end(), p.flow);
  std::printf("checks: oracle %zu flows / %zu bytes (%llu with exemplars), "
              "%zu exemplars recalled, %llu matches per pass\n",
              o.flows.size(), o.bytes, static_cast<unsigned long long>(planted_in_sample),
              r.traffic.plants.size(), static_cast<unsigned long long>(r.expected_matches));
}

void prepare(Run& r) {
  r.nfa = nfa::build_nfa(r.engine.set.patterns);
  r.traffic = make_traffic(*r.spec, r.engine, *r.nfa, r.seed);
  r.traffic_bytes = r.traffic.arena.size();
  const core::Mfa& mfa = *r.engine.mfa;
  const auto& pk = r.traffic.packets;
  // The conservation reference: one inspector, one thread, gate on and off.
  r.expected_matches = replay_total(mfa, pk.data(), pk.size(), true);
  const std::uint64_t gate_off = replay_total(mfa, pk.data(), pk.size(), false);
  if (gate_off != r.expected_matches)
    r.fail("gate-off replay", std::to_string(r.expected_matches) + " matches gated, " +
                                  std::to_string(gate_off) + " ungated");
  r.latency_packets = std::min(pk.size(), r.spec->open_loop ? pk.size() : kLatencyRoundPackets);
  for (std::size_t i = 0; i < r.latency_packets; ++i) r.latency_bytes += pk[i].length;
  r.expected_latency_matches = replay_total(mfa, pk.data(), r.latency_packets, true);
  std::printf("workload %s seed %llu: %zu flows, %zu packets, %llu bytes, "
              "%zu reordered flows, %zu planted exemplars\n",
              r.spec->name, static_cast<unsigned long long>(r.seed),
              r.traffic.flows.size(), pk.size(),
              static_cast<unsigned long long>(r.traffic_bytes),
              r.traffic.reordered_flows, r.traffic.plants.size());
}

constexpr double kMiB = 1024.0 * 1024.0;

/// End-to-end metrics (--trace 0).
void run_end_to_end(Run& r, Clock::time_point phase0) {
  // Every figure is a median over rounds, so a disturbed round (a worker
  // descheduled for a few milliseconds) moves no reported value. Latency
  // quantiles are taken per round (>= 20,000 samples, so p99 has >= 200
  // beyond it) and their medians reported. Closed-loop workloads alternate
  // closed-loop rounds (60% of the time) with open-loop latency rounds
  // (40%), so both kinds are spread over the whole run and a host
  // disturbance of a few seconds reaches only part of each.
  std::vector<double> mbps, cpu_nspb, heap, p50, p99;
  std::size_t samples = 0;
  double open_s = 0.0;
  std::size_t closed_rounds = 0, open_rounds = 0;
  while (seconds_since(phase0) < r.seconds || open_rounds < 3 ||
         (!r.spec->open_loop && closed_rounds < 3)) {
    if (r.spec->open_loop || open_s < 0.4 * seconds_since(phase0)) {
      const auto t0 = Clock::now();
      const OpenRound orr = open_round(r, r.latency_packets);
      open_s += seconds_since(t0);
      ++open_rounds;
      p50.push_back(quantile(orr.latency_us, 0.50));
      p99.push_back(quantile(orr.latency_us, 0.99));
      samples += orr.latency_us.size();
      if (r.spec->open_loop) {
        mbps.push_back(static_cast<double>(r.latency_bytes) / orr.seconds / 1e6);
        cpu_nspb.push_back(orr.cpu_seconds * 1e9 / static_cast<double>(r.latency_bytes));
        heap.push_back(static_cast<double>(orr.heap_bytes));
      }
    } else {
      const ClosedRound cr = closed_round(r, nullptr, false, false, false);
      ++closed_rounds;
      mbps.push_back(static_cast<double>(r.traffic_bytes) / cr.seconds / 1e6);
      cpu_nspb.push_back(cr.cpu_seconds * 1e9 / static_cast<double>(r.traffic_bytes));
      heap.push_back(static_cast<double>(cr.heap_bytes));
    }
  }
  std::printf("rounds: %zu throughput (MB/s min %.1f median %.1f max %.1f); "
              "%zu latency rounds, %zu samples (p99 us min %.1f median %.1f max %.1f)\n",
              mbps.size(), quantile(mbps, 0.0), median(mbps), quantile(mbps, 1.0),
              p99.size(), samples, quantile(p99, 0.0), median(p99), quantile(p99, 1.0));
  r.add("throughput_MBps", median(mbps), "MB/s");
  r.add("latency_p50_us", median(p50), "us");
  r.add("latency_p99_us", median(p99), "us");
  r.add("setup_s", r.engine.setup_s, "s");
  r.add("heap_MiB", (static_cast<double>(r.engine.heap_bytes) + median(heap)) / kMiB, "MiB");
  r.add("cpu_ns_per_byte", median(cpu_nspb), "ns");
}

/// Per-layer metrics (--trace 1): each layer's public calls timed from
/// outside, plus the pipeline's own span ring.
void run_traced(Run& r, Clock::time_point phase0) {
  const core::Mfa& mfa = *r.engine.mfa;
  const Traffic& t = r.traffic;
  const double tps = util::tsc_ticks_per_second();
  const double ns_per_tick = 1e9 / tps;
  const auto bytes = static_cast<double>(r.traffic_bytes);
  const auto packets = static_cast<double>(t.packets.size());

  // rules / split / dfa / filter / mfa: compile.
  r.add("rules.parse_s", r.engine.parse_s, "s");
  r.add("mfa.build_s", r.engine.build_s, "s");
  r.add("dfa.states", mfa.character_dfa().state_count(), "count");
  r.add("split.pieces", static_cast<double>(mfa.pieces().size()), "count");
  r.add("filter.memory_bits", mfa.program().memory_bits, "bits");
  r.add("mfa.image_bytes", static_cast<double>(mfa.memory_image_bytes()), "B");
  r.add("pipeline.start_s", r.engine.start_s, "s");

  // mfa: feed over each reassembled flow, one thread, gate off.
  CountingSink feed_sink;
  std::uint64_t t0 = util::rdtsc_now();
  for (const Flow& f : t.flows) {
    core::Mfa::Context ctx = mfa.make_context();
    mfa.feed(ctx, t.data(f), f.length, 0, feed_sink);
  }
  const double feed_ns = static_cast<double>(util::rdtsc_now() - t0) * ns_per_tick;
  // feed_many with the default lanes over the same flows.
  std::vector<core::Mfa::Context> ctxs;
  ctxs.reserve(t.flows.size());
  std::vector<core::Mfa::FeedJob> jobs;
  jobs.reserve(t.flows.size());
  for (const Flow& f : t.flows) {
    ctxs.push_back(mfa.make_context());
    jobs.push_back(core::Mfa::FeedJob{&ctxs.back(), t.data(f), f.length, 0});
  }
  std::uint64_t many_matches = 0;
  t0 = util::rdtsc_now();
  mfa.feed_many(jobs.data(), jobs.size(),
                [&](std::size_t, std::uint32_t, std::uint64_t) { ++many_matches; });
  const double many_ns = static_cast<double>(util::rdtsc_now() - t0) * ns_per_tick;
  if (many_matches != feed_sink.count)
    r.fail("feed_many", std::to_string(many_matches) + " matches vs feed " +
                            std::to_string(feed_sink.count));
  r.add("mfa.feed_ns_per_byte", feed_ns / bytes, "ns");
  r.add("mfa.feed_many_ns_per_byte", many_ns / bytes, "ns");
  r.add("filter.matches_per_MB", static_cast<double>(feed_sink.count) / (bytes / 1e6), "1/MB");
  std::vector<core::Mfa::FeedJob>().swap(jobs);
  std::vector<core::Mfa::Context>().swap(ctxs);

  // simd: the prefilter gate per packet in flow order; chunks it does not
  // skip are fed (timed apart) so the context stays exact.
  std::uint64_t gate_ticks = 0, gated_feed_ticks = 0, gate_calls = 0, skips = 0;
  CountingSink gated_sink;
  for (const Flow& f : t.flows) {
    core::Mfa::Context ctx = mfa.make_context();
    std::uint64_t seq = 0;
    for (std::uint32_t k = 0; k < f.packet_count; ++k) {
      const std::uint32_t len = t.packet_lengths[f.first_packet + k];
      const std::uint8_t* d = t.data(f) + seq;
      const std::uint64_t a = util::rdtsc_now();
      const simd::Gate g = mfa.prefilter_gate(ctx, d, len);
      const std::uint64_t b = util::rdtsc_now();
      gate_ticks += b - a;
      ++gate_calls;
      if (g == simd::Gate::kSkip) {
        ++skips;
      } else {
        mfa.feed(ctx, d, len, seq, gated_sink);
        gated_feed_ticks += util::rdtsc_now() - b;
      }
      seq += len;
    }
  }
  if (gated_sink.count != feed_sink.count)
    r.fail("gated feed", std::to_string(gated_sink.count) + " matches vs feed " +
                             std::to_string(feed_sink.count));
  r.add("simd.gate_ns_per_byte", static_cast<double>(gate_ticks) * ns_per_tick / bytes, "ns");
  r.add("simd.skip_ratio", static_cast<double>(skips) / static_cast<double>(gate_calls), "ratio");

  // flow: TieredFlowInspector::packet_batch in bursts, one thread.
  {
    const std::size_t heap0 = live_bytes();
    flow::TieredFlowInspector<core::Mfa> insp(mfa);
    CountingSink sink;
    const auto& pk = t.packets;
    t0 = util::rdtsc_now();
    for (std::size_t i = 0; i < pk.size(); i += kBurst)
      insp.packet_batch(pk.data() + i, std::min(kBurst, pk.size() - i), sink);
    const double flow_ns = static_cast<double>(util::rdtsc_now() - t0) * ns_per_tick;
    if (sink.count != r.expected_matches)
      r.fail("traced flow replay", std::to_string(sink.count) + " matches vs " +
                                       std::to_string(r.expected_matches));
    const double per_packet = flow_ns / packets;
    r.add("flow.ns_per_packet", per_packet, "ns");
    r.add("flow.self_ns_per_packet",
          per_packet - static_cast<double>(gate_ticks + gated_feed_ticks) * ns_per_tick / packets,
          "ns");
    r.add("flow.bytes_per_flow",
          static_cast<double>(live_bytes() - heap0) /
              static_cast<double>(std::max<std::size_t>(1, insp.flow_count())),
          "B");
    r.add("flow.cold_records", static_cast<double>(insp.cold_record_count()), "count");
  }

  // pipeline: one traced round in the workload's own mode, every packet
  // span-stamped, submit() timed from outside.
  std::vector<double> queue_wait, burst_scan;
  double submit_ns_per_packet = 0.0, spins_per_packet = 0.0, skew = 0.0;
  const auto shard_skew = [](const std::vector<pipeline::ShardStats>& st) {
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (const auto& s : st) {
      lo = std::min(lo, s.packets);
      hi = std::max(hi, s.packets);
    }
    return lo == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(lo);
  };
  if (r.spec->open_loop) {
    OpenRound orr = open_round(r, r.latency_packets);
    queue_wait = std::move(orr.queue_wait_us);
    burst_scan = std::move(orr.burst_scan_us);
    submit_ns_per_packet = orr.submit_ns / static_cast<double>(r.latency_packets);
    spins_per_packet = static_cast<double>(orr.totals.queue_full_spins) /
                       static_cast<double>(r.latency_packets);
    skew = shard_skew(orr.shards);
  } else {
    auto registry = make_registry(t.packets.size());
    ClosedRound cr = closed_round(r, registry.get(), false, false, true);
    const std::vector<obs::SpanTraceRing::Event> spans = registry->spans().drain();
    if (spans.size() != t.packets.size())
      r.fail("traced round spans", std::to_string(spans.size()) + " spans for " +
                                       std::to_string(t.packets.size()) + " packets");
    for (const auto& s : spans) {
      queue_wait.push_back(s.dequeue_tsc > s.submit_tsc
                               ? static_cast<double>(s.dequeue_tsc - s.submit_tsc) * ns_per_tick * 1e-3
                               : 0.0);
      burst_scan.push_back(s.scan_end_tsc > s.scan_start_tsc
                               ? static_cast<double>(s.scan_end_tsc - s.scan_start_tsc) * ns_per_tick * 1e-3
                               : 0.0);
    }
    submit_ns_per_packet = cr.submit_ns / packets;
    spins_per_packet = static_cast<double>(cr.totals.queue_full_spins) / packets;
    skew = shard_skew(cr.shards);
  }
  r.add("pipeline.submit_ns_per_packet", submit_ns_per_packet, "ns");
  r.add("pipeline.queue_wait_us_p50", quantile(queue_wait, 0.50), "us");
  r.add("pipeline.queue_wait_us_p99", quantile(queue_wait, 0.99), "us");
  r.add("pipeline.burst_scan_us_p50", quantile(burst_scan, 0.50), "us");
  r.add("pipeline.queue_full_spins_per_packet", spins_per_packet, "count");
  r.add("pipeline.shard_skew", skew, "ratio");

  // obs: closed-loop throughput with the registry attached at its default
  // sampling against detached, in alternating pairs.
  std::vector<double> overhead;
  const double obs_until = std::max(seconds_since(phase0), r.seconds * 0.7);
  for (int i = 0; i < 3 || seconds_since(phase0) < obs_until; ++i) {
    auto registry = make_registry(1024);
    double detached = 0.0, attached = 0.0;
    if (i % 2 == 0) {
      detached = closed_round(r, nullptr, false, false, false).seconds;
      attached = closed_round(r, registry.get(), true, false, false).seconds;
    } else {
      attached = closed_round(r, registry.get(), true, false, false).seconds;
      detached = closed_round(r, nullptr, false, false, false).seconds;
    }
    overhead.push_back((attached / detached - 1.0) * 100.0);
  }
  r.add("obs.overhead_pct", median(overhead), "%");

  // loadgen: how late the open-loop generator ran.
  std::vector<double> late;
  for (int i = 0; i < 2 || seconds_since(phase0) < r.seconds; ++i) {
    OpenRound orr = open_round(r, r.latency_packets);
    late.insert(late.end(), orr.late_us.begin(), orr.late_us.end());
  }
  r.add("loadgen.late_us_p99", quantile(late, 0.99), "us");
}

void print_result(const Run& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- self-test -----------------------------------------------------------------

/// Shows that each output check rejects a corrupted result: the real check
/// round's flow-attributed matches must pass, and the same matches with one
/// alert removed, or one id changed, must fail.
int selftest() {
  Spec spec = all_specs()[0];
  spec.bytes = 4u << 20;
  spec.oracle_bytes = 1u << 20;
  Run r;
  r.spec = &spec;
  r.seed = 1;
  if (!set_up(spec, r.engine)) return 1;
  prepare(r);
  ClosedRound cr = closed_round(r, nullptr, false, true, false);
  bool unknown = false;
  const FlowMatches got = group_by_flow(r.traffic, cr.flow_matches, unknown);
  const Oracle o = run_oracle(spec, r.traffic, *r.nfa, r.seed);
  int bad = 0;
  std::string why;
  const auto expect = [&](bool ok, bool want, const char* what) {
    std::printf("selftest: %-44s %s\n", what, ok == want ? "ok" : "WRONG");
    if (!why.empty() && !ok) std::printf("          (%s)\n", why.c_str());
    why.clear();
    if (ok != want) ++bad;
  };
  expect(!unknown && r.correct, true, "unmodified run passes all checks");
  expect(check_oracle(o, got, why), true, "oracle accepts the real match set");
  expect(check_recall(r.traffic.plants, got, why), true,
         "recall accepts the real match set");

  // Pick a sampled flow that carries a planted exemplar.
  const Plant* victim = nullptr;
  for (const Plant& p : r.traffic.plants)
    if (std::binary_search(o.flows.begin(), o.flows.end(), p.flow)) {
      victim = &p;
      break;
    }
  if (victim == nullptr) {
    std::printf("selftest: no planted flow in the oracle sample\n");
    return 1;
  }
  {
    FlowMatches removed = got;
    MatchVec& v = removed[victim->flow];
    v.erase(std::find(v.begin(), v.end(), Match{victim->id, victim->end}));
    expect(check_oracle(o, removed, why), false, "oracle rejects one alert removed");
    expect(check_recall(r.traffic.plants, removed, why), false,
           "recall rejects one alert removed");
  }
  {
    FlowMatches changed = got;
    MatchVec& v = changed[victim->flow];
    auto it = std::find(v.begin(), v.end(), Match{victim->id, victim->end});
    it->id += 1;
    std::sort(v.begin(), v.end());
    expect(check_oracle(o, changed, why), false, "oracle rejects one id changed");
    expect(check_recall(r.traffic.plants, changed, why), false,
           "recall rejects one id changed");
  }
  {
    pipeline::ShardStats s = cr.totals;
    const std::size_t n = r.traffic.packets.size();
    expect(check_conservation(s, n, r.traffic_bytes, r.expected_matches, why), true,
           "conservation accepts the real totals");
    s.matches -= 1;
    expect(check_conservation(s, n, r.traffic_bytes, r.expected_matches, why), false,
           "conservation rejects one match missing");
    s = cr.totals;
    s.scanned -= 1;
    s.shed_admission += 1;
    expect(check_conservation(s, n, r.traffic_bytes, r.expected_matches, why), false,
           "conservation rejects one packet shed");
    s = cr.totals;
    s.bytes -= 1;
    expect(check_conservation(s, n, r.traffic_bytes, r.expected_matches, why), false,
           "conservation rejects one byte missing");
  }
  std::printf("selftest: %s\n", bad == 0 ? "PASS" : "FAIL");
  return bad == 0 ? 0 : 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: idsbench --workload NAME --seed N --seconds S --trace 0|1\n"
               "       idsbench --selftest\n"
               "workloads:");
  for (const Spec& s : all_specs()) std::fprintf(stderr, " %s", s.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return selftest();
    if (i + 1 >= argc) return usage();
    const char* v = argv[++i];
    if (a == "--workload") workload = v;
    else if (a == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (a == "--seconds") seconds = std::strtod(v, nullptr);
    else if (a == "--trace") trace = std::atoi(v);
    else return usage();
  }
  const std::vector<Spec> specs = all_specs();
  const Spec* spec = nullptr;
  for (const Spec& s : specs)
    if (workload == s.name) spec = &s;
  if (spec == nullptr || seconds <= 0.0 || (trace != 0 && trace != 1)) return usage();

  Run r;
  r.spec = spec;
  r.seed = seed;
  r.seconds = seconds;
  if (!set_up(*spec, r.engine)) return 1;
  prepare(r);
  check_round(r);
  const auto phase0 = Clock::now();
  if (trace == 1)
    run_traced(r, phase0);
  else
    run_end_to_end(r, phase0);
  print_result(r);
  return 0;
}
