// dssoc_bench — host-performance benchmark of the emulator's sweeps.
//
//   dssoc_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--pin-goldens] [--record FILE] [--revision REV]
//
// Run from the repository root (benchmark/run.sh does). One process runs one
// workload as a closed loop: one discarded warm-up pass, then timed passes
// back to back until S seconds have passed. Every point of every pass is
// checked against its reference digest. The last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"} carrying the
// end-to-end metrics, or with --trace 1 the per-layer metrics of a separate
// traced run. The exit status is 0 only when every check passed.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "dsp/fft.hpp"
#include "exp/bench_json.hpp"
#include "exp/journal.hpp"
#include "exp/proc_pool.hpp"
#include "exp/wire.hpp"
#include "json/json.hpp"
#include "policy/register.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace dssoc::perf {
namespace {

namespace fs = std::filesystem;

/// Set-ups of a traced run, all before its first pass.
constexpr int kSetupRebuilds = 20;
/// Set-ups per timed pass of an untraced run: spread over the run, they
/// sample the same host conditions as the sweeps.
constexpr int kRebuildsPerPass = 2;
constexpr int kMinPasses = 3;
constexpr int kMinResumes = 5;
constexpr int kProcWorkers = 2;
/// EFT points of a traced pass run in 1 ms emulated slices, so the trace
/// shows host cost growing with the backlog.
constexpr SimTime kEftSlice = sim_from_ms(1.0);
constexpr const char* kGoldensPath = "benchmark/goldens.json";
constexpr const char* kResultsDir = "benchmark/results";

/// The per-layer metrics (BENCHMARK.json "per_layer") and their units, in
/// order. A layer the workload's path does not reach reads 0.
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"apps.library_build_ms", "ms"},
    {"apps.register_kernels_ms", "ms"},
    {"platform.build_ms", "ms"},
    {"core.workload_gen_ms", "ms"},
    {"core.emulation_init_ms", "ms"},
    {"core.run_ms", "ms"},
    {"core.tasks", "count"},
    {"core.sched_events", "count"},
    {"core.host_ns_per_task", "ns"},
    {"core.eft.ns_per_event", "ns"},
    {"core.met.ns_per_event", "ns"},
    {"core.frfs.ns_per_event", "ns"},
    {"core.eft.share_pct", "%"},
    {"policy.table.ns_per_event", "ns"},
    {"core.stats_digest_ms", "ms"},
    {"core.latency_stats_ms", "ms"},
    {"core.snapshot_ms", "ms"},
    {"core.restore_ms", "ms"},
    {"core.snapshot_kb", "KB"},
    {"apps.kernel_ms", "ms"},
    {"apps.kernel_share_pct", "%"},
    {"dsp.fft64_ns", "ns"},
    {"dsp.fft128_ns", "ns"},
    {"dsp.fft256_ns", "ns"},
    {"exp.inproc.overhead_ms", "ms"},
    {"exp.proc.busy_ms", "ms"},
    {"exp.proc.overhead_ms", "ms"},
    {"exp.proc.respawns", "count"},
    {"exp.proc.retries", "count"},
    {"exp.wire.encode_ms", "ms"},
    {"exp.wire.decode_ms", "ms"},
    {"exp.wire.mb", "MB"},
    {"exp.journal.append_ms", "ms"},
    {"exp.journal.mb", "MB"},
    {"exp.artifact_ms", "ms"},
    {"exp.journal.open_ms", "ms"},
    {"exp.journal.find_ms", "ms"},
    {"trace.overhead_pct", "%"},
};

constexpr const char* kUsage =
    "usage: dssoc_bench --workload fig10|fig11|fig9|fig11-proc [--seed N] "
    "[--seconds S] [--trace 0|1] [--pin-goldens] [--record FILE] "
    "[--revision REV]";

struct Options {
  std::string workload;
  std::optional<std::uint64_t> seed;
  double seconds = 10.0;
  bool trace = false;
  bool pin_goldens = false;
  std::string record;  ///< JSON-lines file each run appends to ("" = none)
  std::string revision = "unknown";
};

Options parse_options(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw ConfigError(cat(arg, " needs a value\n", kUsage));
      }
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        options.workload = value();
      } else if (arg == "--seed") {
        options.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value());
      } else if (arg == "--trace") {
        const std::string v = value();
        DSSOC_REQUIRE(v == "0" || v == "1", "--trace takes 0 or 1");
        options.trace = v == "1";
      } else if (arg == "--pin-goldens") {
        options.pin_goldens = true;
      } else if (arg == "--record") {
        options.record = value();
      } else if (arg == "--revision") {
        options.revision = value();
      } else {
        throw ConfigError(cat("unknown argument \"", arg, "\"\n", kUsage));
      }
    } catch (const std::logic_error&) {  // std::stoull / std::stod
      throw ConfigError(cat("bad value for ", arg, "\n", kUsage));
    }
  }
  if (find_workload(options.workload) == nullptr) {
    throw ConfigError(cat("unknown workload \"", options.workload, "\"\n",
                          kUsage));
  }
  DSSOC_REQUIRE(options.seconds > 0.0, "--seconds must be positive");
  DSSOC_REQUIRE(fs::exists(kPolicyTablePath),
                cat("run from the repository root (", kPolicyTablePath,
                    " not found)"));
  return options;
}

double median(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : percentile(samples, 50.0);
}

double seconds_since(const Stopwatch& watch) {
  return sim_to_sec(watch.elapsed());
}

/// Repeats body(i) until `seconds` have passed and it ran `min_runs` times.
template <typename F>
void repeat_for(double seconds, int min_runs, F&& body) {
  const Stopwatch watch;
  for (int i = 0; i < min_runs || seconds_since(watch) < seconds; ++i) {
    body(i);
  }
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// A mkdtemp directory under the results directory, removed on exit.
class ScratchDir {
 public:
  ScratchDir() {
    fs::create_directories(kResultsDir);
    std::string pattern = cat(kResultsDir, "/scratch.XXXXXX");
    DSSOC_REQUIRE(::mkdtemp(pattern.data()) != nullptr,
                  "cannot create a scratch directory");
    path_ = pattern;
  }
  ~ScratchDir() {
    std::error_code ignored;
    fs::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

using Digests = std::map<std::string, std::uint64_t>;

Digests digests_of(const std::vector<exp::SweepResult>& results) {
  Digests digests;
  for (const exp::SweepResult& result : results) {
    digests[result.label] = result.stats.digest();
  }
  return digests;
}

/// goldens.json, or an empty document when none was pinned yet.
json::Value read_goldens() {
  std::ifstream in(kGoldensPath);
  if (!in) {
    return json::Value(json::Object{});
  }
  std::ostringstream text;
  text << in.rdbuf();
  return json::parse(text.str());
}

/// The pinned digests of `workload` when they were pinned for `seed`.
std::optional<Digests> load_goldens(const std::string& workload,
                                    std::uint64_t seed) {
  const json::Value doc = read_goldens();
  const json::Value* entry = doc.as_object().find(workload);
  if (entry == nullptr ||
      static_cast<std::uint64_t>(entry->at("seed").as_int()) != seed) {
    return std::nullopt;
  }
  Digests digests;
  for (const auto& [label, hex] : entry->at("digests").as_object()) {
    digests[label] = std::stoull(hex.as_string(), nullptr, 16);
  }
  return digests;
}

void pin_goldens(const std::string& workload, std::uint64_t seed,
                 const Digests& digests) {
  json::Value doc = read_goldens();
  json::Object pinned;
  for (const auto& [label, digest] : digests) {
    pinned.set(label, format_hex64(digest));
  }
  json::Object entry;
  entry.set("seed", seed);
  entry.set("digests", std::move(pinned));
  doc.as_object().set(workload, std::move(entry));
  exp::write_json_file(kGoldensPath, doc);
}

/// Counts every output check of a run and keeps the first failures.
class Checker {
 public:
  void set_reference(Digests digests) { reference_ = std::move(digests); }
  const Digests& reference() const { return reference_; }

  void expect(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 10) {
        failures_.push_back(what);
      }
    }
  }

  /// True when `result` is `label`'s ok result with the digest `digests`
  /// hold for it (the reference digests by default).
  static bool matches(const Digests& digests, const std::string& label,
                      const exp::SweepResult& result) {
    const auto it = digests.find(label);
    return result.label == label && result.status == exp::PointStatus::kOk &&
           it != digests.end() && it->second == result.stats.digest();
  }
  bool matches(const std::string& label,
               const exp::SweepResult& result) const {
    return matches(reference_, label, result);
  }

  void check_pass(const std::vector<exp::SweepPoint>& points,
                  const std::vector<exp::SweepResult>& results,
                  const std::string& context) {
    check_pass(reference_, points, results, context);
  }
  void check_pass(const Digests& digests,
                  const std::vector<exp::SweepPoint>& points,
                  const std::vector<exp::SweepResult>& results,
                  const std::string& context) {
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect(i < results.size() && matches(digests, points[i].label, results[i]),
             cat(context, ": ", points[i].label));
    }
  }

  /// A pass that threw: every one of its points counts as failed.
  void fail_pass(const std::vector<exp::SweepPoint>& points,
                 const std::string& context, const std::string& error) {
    for (const exp::SweepPoint& point : points) {
      expect(false, cat(context, ": ", point.label, " (", error, ")"));
    }
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  Digests reference_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

/// Named sample sets, reduced to one value per metric when the run ends.
using Samples = std::map<std::string, std::vector<double>>;

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// --- passes ------------------------------------------------------------------

std::vector<exp::SweepResult> inproc_pass(
    const std::vector<exp::SweepPoint>& points) {
  const exp::SweepRunner runner(1);
  return runner.run(points);
}

/// One traced in-process pass: each point driven through core::Emulation's
/// public calls with one AppInstancePool per pass, as SweepRunner does. The
/// points' schedulers are timed:<spec> wrappers.
std::vector<exp::SweepResult> traced_inproc_pass(
    const std::vector<exp::SweepPoint>& points, Tracer& tracer,
    const std::string& pass_id) {
  const std::string eft = timed_spec("EFT");
  std::vector<exp::SweepResult> results(points.size());
  core::AppInstancePool pool;
  tracer.span("pass", pass_id, [&] {
    for (std::size_t i = 0; i < points.size(); ++i) {
      const exp::SweepPoint& point = points[i];
      const std::string& id = point.label;
      exp::SweepResult& result = results[i];
      result.label = id;
      tracer.span("point", id, [&] {
        std::optional<core::Emulation> emulation;
        tracer.span("core.Emulation", id, [&] {
          emulation.emplace(point.setup, point.workload, &pool);
        });
        if (point.setup.options.scheduler == eft) {
          // Each slice ends at the next 1 ms boundary after now(): the
          // engine stops only at cycle boundaries and may overshoot.
          for (SimTime t = kEftSlice; !emulation->done();
               t = (emulation->now() / kEftSlice + 1) * kEftSlice) {
            tracer.span("core.Emulation.run_until", id,
                        [&] { emulation->run_until(t); });
          }
        } else {
          tracer.span("core.Emulation.run_until", id,
                      [&] { emulation->run_until(kSimTimeNever); });
        }
        tracer.span("core.Emulation.finish", id,
                    [&] { result.stats = emulation->finish(); });
        tracer.span("core.EmulationStats.digest", id,
                    [&] { (void)result.stats.digest(); });
        tracer.span("core.EmulationStats.latency_stats", id,
                    [&] { (void)result.stats.latency_stats(); });
        result.status = exp::status_from_stats(result.stats);
      });
    }
  });
  return results;
}

/// fig11-proc's sweep: ProcessPool with a fresh fsynced journal, then the
/// schema-5 artifact.
struct ProcPass {
  std::vector<exp::SweepResult> results;
  exp::ProcessPool::Accounting accounting;
  std::int64_t pool_ns = 0;  ///< traced only
  std::string journal_path;
};

ProcPass proc_pass(const std::vector<exp::SweepPoint>& points,
                   const std::string& dir, Tracer* tracer,
                   const std::string& id) {
  ProcPass pass;
  pass.journal_path = dir + "/sweep.journal";
  std::vector<std::uint64_t> hashes;
  traced(tracer, "exp.point_config_hash", id, [&] {
    for (const exp::SweepPoint& point : points) {
      hashes.push_back(exp::point_config_hash(point));
    }
  });
  std::optional<exp::SweepJournal> journal;
  traced(tracer, "exp.SweepJournal.open", id,
         [&] { journal.emplace(pass.journal_path); });

  exp::ProcessPoolOptions options;
  options.workers = kProcWorkers;
  options.max_retries = 2;
  options.timeout_ms = 0.0;
  options.backoff_ms = 25.0;
  exp::ProcessPool pool(options);
  const Stopwatch watch;
  pass.pool_ns = traced(tracer, "exp.ProcessPool.run", id, [&] {
    pass.results = pool.run(
        points, [&](std::size_t i, const exp::SweepResult& result) {
          traced(tracer, "exp.SweepJournal.append", result.label,
                 [&] { journal->append(hashes[i], result); });
        });
  });
  const double wall_ms = sim_to_ms(watch.elapsed());
  pass.accounting = pool.accounting();
  for (std::size_t i = 0; i < pass.results.size(); ++i) {
    pass.results[i].config_hash = hashes[i];
  }

  exp::SweepArtifactMeta meta;
  meta.fabric = "proc";
  meta.worker_respawns = pass.accounting.worker_respawns;
  json::Value doc;
  traced(tracer, "exp.sweep_to_json", id, [&] {
    doc = exp::sweep_to_json("fig11-proc", pool.workers(), wall_ms,
                             pass.results, meta);
  });
  traced(tracer, "exp.write_json_file", id,
         [&] { exp::write_json_file(dir + "/BENCH_sweep.json", doc); });
  return pass;
}

/// Journals `results` (the in-process workloads' resume input).
void write_journal(const std::vector<exp::SweepPoint>& points,
                   const std::vector<exp::SweepResult>& results,
                   const std::string& path, Tracer* tracer) {
  exp::SweepJournal journal(path);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const std::uint64_t hash = exp::point_config_hash(points[i]);
    traced(tracer, "exp.SweepJournal.append", points[i].label,
           [&] { journal.append(hash, results[i]); });
  }
}

/// The resume path of run_sweep: reopen the journal, look every point up by
/// its config hash. The returned records live as long as `journal`.
std::vector<const exp::SweepResult*> resume(
    const std::vector<exp::SweepPoint>& points, const std::string& path,
    std::optional<exp::SweepJournal>& journal, Tracer* tracer,
    const std::string& id) {
  traced(tracer, "exp.SweepJournal.open", id, [&] { journal.emplace(path); });
  std::vector<const exp::SweepResult*> found(points.size(), nullptr);
  for (std::size_t i = 0; i < points.size(); ++i) {
    traced(tracer, "exp.SweepJournal.find", points[i].label, [&] {
      found[i] = journal->find_ok(exp::point_config_hash(points[i]));
    });
  }
  return found;
}

/// What a resumed record must equal: the executed result's bytes.
struct Executed {
  std::uint64_t digest = 0;
  double wall_ms = 0.0;
};

std::vector<Executed> executed_of(
    const std::vector<exp::SweepResult>& results) {
  std::vector<Executed> executed;
  for (const exp::SweepResult& result : results) {
    executed.push_back({result.stats.digest(), result.wall_ms});
  }
  return executed;
}

void check_resumed(Checker& checker,
                   const std::vector<exp::SweepPoint>& points,
                   const std::vector<const exp::SweepResult*>& found,
                   const std::vector<Executed>& executed,
                   const std::string& context) {
  for (std::size_t i = 0; i < points.size(); ++i) {
    const exp::SweepResult* record = found[i];
    checker.expect(record != nullptr && i < executed.size() &&
                       checker.matches(points[i].label, *record) &&
                       record->stats.digest() == executed[i].digest &&
                       record->wall_ms == executed[i].wall_ms,
                   cat(context, ": resumed ", points[i].label));
  }
}

/// decode_result(encode_result(r)) must reproduce r, for every result. When
/// `samples` is given, appends the summed encode and decode times (traced
/// runs) and the encoded megabytes.
void wire_probe(Checker& checker, const std::vector<exp::SweepResult>& results,
                Tracer* tracer, Samples* samples) {
  std::int64_t encode_ns = 0;
  std::int64_t decode_ns = 0;
  double bytes = 0.0;
  for (std::size_t i = 0; i < results.size(); ++i) {
    exp::WireResult message;
    message.point_index = i;
    message.ok = true;
    message.wall_ms = results[i].wall_ms;
    message.stats = results[i].stats;
    std::vector<std::uint8_t> frame;
    exp::WireResult decoded;
    encode_ns += traced(tracer, "exp.encode_result", results[i].label,
                        [&] { frame = exp::encode_result(message); });
    decode_ns += traced(tracer, "exp.decode_result", results[i].label,
                        [&] { decoded = exp::decode_result(frame); });
    bytes += static_cast<double>(frame.size());
    checker.expect(decoded.ok && decoded.point_index == i &&
                       decoded.wall_ms == message.wall_ms &&
                       decoded.stats.digest() == message.stats.digest(),
                   cat("wire round trip: ", results[i].label));
  }
  if (samples != nullptr) {
    (*samples)["exp.wire.encode_ms"].push_back(sim_to_ms(encode_ns));
    (*samples)["exp.wire.decode_ms"].push_back(sim_to_ms(decode_ns));
    (*samples)["exp.wire.mb"].push_back(bytes / 1e6);
  }
}

/// Mid-frame snapshot of each 6.92 row, restored into a fresh emulation and
/// finished: must be bit-identical to the uninterrupted run.
void snapshot_probe(Checker& checker,
                    const std::vector<exp::SweepPoint>& points,
                    Tracer* tracer, Samples* samples) {
  std::int64_t snapshot_ns = 0;
  std::int64_t restore_ns = 0;
  double bytes = 0.0;
  for (const exp::SweepPoint& point : points) {
    if (!is_top_rate_row(point)) {
      continue;
    }
    core::Emulation source(point.setup, point.workload);
    source.run_until(point.time_frame / 2);
    core::EngineSnapshot snapshot;
    snapshot_ns += traced(tracer, "core.Emulation.snapshot", point.label,
                          [&] { snapshot = source.snapshot(); });
    bytes += static_cast<double>(snapshot.data().size());
    core::Emulation target(point.setup, point.workload);
    restore_ns += traced(tracer, "core.Emulation.restore", point.label,
                         [&] { target.restore(snapshot); });
    exp::SweepResult result;
    result.label = point.label;
    result.stats = target.finish();
    checker.expect(checker.matches(point.label, result),
                   cat("snapshot -> restore -> finish: ", point.label));
  }
  if (samples != nullptr) {
    (*samples)["core.snapshot_ms"].push_back(sim_to_ms(snapshot_ns));
    (*samples)["core.restore_ms"].push_back(sim_to_ms(restore_ns));
    (*samples)["core.snapshot_kb"].push_back(bytes / 1024.0);
  }
}

/// dsp::fft (plan built per call, as the kernels call it) at the OFDM
/// length and the radar lengths; ns per call including a copy of the input.
void fft_probe(Samples& samples) {
  constexpr int kBatches = 15;
  constexpr int kCalls = 1000;
  for (const std::size_t n : {std::size_t{64}, std::size_t{128},
                              std::size_t{256}}) {
    std::vector<dsp::cfloat> input(n);
    Rng rng(n);
    for (dsp::cfloat& x : input) {
      x = dsp::cfloat(static_cast<float>(rng.uniform(-0.5, 0.5)),
                      static_cast<float>(rng.uniform(-0.5, 0.5)));
    }
    std::vector<dsp::cfloat> data(n);
    std::vector<double> per_call;
    for (int b = 0; b < kBatches; ++b) {
      const Stopwatch watch;
      for (int c = 0; c < kCalls; ++c) {
        std::copy(input.begin(), input.end(), data.begin());
        dsp::fft(data);
      }
      per_call.push_back(static_cast<double>(watch.elapsed()) / kCalls);
    }
    samples[cat("dsp.fft", n, "_ns")].push_back(median(per_call));
  }
}

// --- one workload run ----------------------------------------------------------

class Bench {
 public:
  Bench(const Options& options, const WorkloadInfo& workload)
      : options_(options),
        workload_(workload),
        seed_(options.seed.value_or(workload.default_seed)) {}

  int run();

 private:
  /// One timed set-up from nothing: harness, table load, points.
  void rebuild(Tracer* tracer);
  /// kSetupRebuilds rebuilds, before the first pass.
  void setup(Tracer* tracer);
  /// kRebuildsPerPass rebuilds at the start of an untraced timed pass.
  void rebuild_for_pass();
  void establish_reference(const std::vector<exp::SweepResult>& warm);
  /// With another --seed than the workload's default, one more in-process
  /// pass over the default-seed points, checked against the goldens.
  void golden_check();
  void run_untraced();
  void run_traced();
  void traced_inproc(Tracer& tracer);
  void traced_proc(Tracer& tracer);
  /// The points with every scheduler wrapped in timed:<spec>.
  std::vector<exp::SweepPoint> timed_points() const;
  /// Traced in-process passes for `seconds`; returns each pass's duration
  /// in s.
  std::vector<double> traced_engine_passes(Tracer& tracer, double seconds);
  /// Records the engine-layer samples of one traced in-process pass and
  /// returns the pass's duration in ns, minus the stats calls it times.
  double engine_samples(const Tracer& tracer,
                        const std::vector<exp::SweepResult>& results);
  /// One fig11-proc pass plus its resume, checked; returns the results.
  std::vector<exp::SweepResult> proc_round(Tracer* tracer,
                                           const std::string& id,
                                           Samples* samples);
  /// Journals the warm-up pass's results: what the in-process workloads
  /// resume from.
  void journal_warm_up(const std::vector<exp::SweepResult>& results,
                       Tracer* tracer);
  /// One timed, checked resume of that journal.
  void resume_warm_up(Tracer* tracer, const std::string& id);
  void run_checked(const std::string& context,
                   const std::function<void()>& body);
  double sample(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() ? 0.0 : median(it->second);
  }
  double fastest(const std::string& name) const {
    const auto it = samples_.find(name);
    return it == samples_.end() || it->second.empty()
               ? 0.0
               : *std::min_element(it->second.begin(), it->second.end());
  }
  /// Prints a timing's pass count, fastest pass, median, and the highest
  /// percentile with at least ten passes beyond it.
  void print_distribution(const std::string& name) const;
  void print_and_record(const std::vector<Metric>& metrics) const;

  const Options& options_;
  const WorkloadInfo& workload_;
  const std::uint64_t seed_;
  ScratchDir scratch_;
  std::unique_ptr<Harness> harness_;
  std::vector<exp::SweepPoint> points_;
  Checker checker_;
  Samples samples_;
  int passes_ = 0;
  std::string warm_up_journal_;
  std::vector<Executed> warm_up_executed_;
};

void Bench::run_checked(const std::string& context,
                        const std::function<void()>& body) {
  try {
    body();
  } catch (const std::exception& e) {
    checker_.fail_pass(points_, context, e.what());
  }
}

void Bench::rebuild(Tracer* tracer) {
  // The previous points and harness are destroyed before the clock starts.
  points_.clear();
  harness_.reset();
  if (tracer != nullptr) {
    tracer->clear_sums();
  }
  const Stopwatch watch;
  traced(tracer, "setup", "setup", [&] {
    harness_ = make_harness(workload_, tracer);
    points_ = make_points(workload_, *harness_, seed_, tracer);
  });
  samples_["setup_s"].push_back(seconds_since(watch));
  if (tracer != nullptr) {
    for (const char* step : {"platform.build", "apps.register_kernels",
                             "apps.library_build", "core.workload_gen"}) {
      samples_[cat(step, "_ms")].push_back(sim_to_ms(tracer->sum(step)));
    }
  }
}

void Bench::setup(Tracer* tracer) {
  for (int i = 0; i < kSetupRebuilds; ++i) {
    rebuild(tracer);
  }
}

void Bench::rebuild_for_pass() {
  for (int i = 0; i < kRebuildsPerPass; ++i) {
    rebuild(nullptr);
  }
}

void Bench::establish_reference(const std::vector<exp::SweepResult>& warm) {
  std::optional<Digests> goldens;
  if (!options_.pin_goldens) {
    goldens = load_goldens(workload_.name, seed_);
  }
  checker_.set_reference(goldens ? std::move(*goldens) : digests_of(warm));
  checker_.check_pass(points_, warm, "warm-up pass");
  std::cout << "reference digests: "
            << (goldens ? cat("pinned goldens (", kGoldensPath, ")")
                        : std::string("this run's warm-up pass"))
            << '\n';
}

void Bench::golden_check() {
  if (options_.pin_goldens || seed_ == workload_.default_seed) {
    return;  // the passes themselves were checked against the goldens
  }
  const std::optional<Digests> goldens =
      load_goldens(workload_.name, workload_.default_seed);
  if (!goldens) {
    std::cout << "no goldens pinned for " << workload_.name << " seed "
              << workload_.default_seed << '\n';
    return;
  }
  run_checked("golden pass", [&] {
    const std::vector<exp::SweepPoint> pinned =
        make_points(workload_, *harness_, workload_.default_seed, nullptr);
    checker_.check_pass(*goldens, pinned, inproc_pass(pinned),
                        cat("golden pass (seed ", workload_.default_seed, ")"));
  });
}

std::vector<exp::SweepResult> Bench::proc_round(Tracer* tracer,
                                                const std::string& id,
                                                Samples* samples) {
  const std::string dir = cat(scratch_.path(), "/", id);
  fs::create_directories(dir);
  const Stopwatch sweep_watch;
  ProcPass pass = proc_pass(points_, dir, tracer, id);
  const double sweep_s = seconds_since(sweep_watch);
  std::vector<Executed> executed;
  traced(tracer, "bench.check", id, [&] {
    if (checker_.reference().empty()) {
      establish_reference(pass.results);
    } else {
      checker_.check_pass(points_, pass.results, id);
    }
    executed = executed_of(pass.results);
  });
  // The sweep's own journal open (of a fresh, empty file) is not resume.
  const std::int64_t created_ns =
      tracer != nullptr ? tracer->sum("exp.SweepJournal.open") : 0;
  double resume_s = 0.0;
  {
    std::optional<exp::SweepJournal> journal;
    const Stopwatch resume_watch;
    const std::vector<const exp::SweepResult*> found =
        resume(points_, pass.journal_path, journal, tracer, id);
    resume_s = seconds_since(resume_watch);
    traced(tracer, "bench.check", id, [&] {
      check_resumed(checker_, points_, found, executed, id);
    });
  }
  if (samples != nullptr) {
    (*samples)["sweep_s"].push_back(sweep_s);
    (*samples)["resume_s"].push_back(resume_s);
  }
  if (tracer != nullptr && samples != nullptr) {
    double busy_ms = 0.0;
    for (const exp::SweepResult& result : pass.results) {
      busy_ms += result.wall_ms;
    }
    Samples& s = *samples;
    s["exp.proc.busy_ms"].push_back(busy_ms);
    s["exp.proc.overhead_ms"].push_back(
        sim_to_ms(pass.pool_ns) * kProcWorkers - busy_ms);
    s["exp.proc.respawns"].push_back(
        static_cast<double>(pass.accounting.worker_respawns));
    s["exp.proc.retries"].push_back(
        static_cast<double>(pass.accounting.points_retried));
    s["exp.journal.mb"].push_back(
        static_cast<double>(fs::file_size(pass.journal_path)) / 1e6);
    s["exp.journal.append_ms"].push_back(
        sim_to_ms(tracer->sum("exp.SweepJournal.append")));
    s["exp.artifact_ms"].push_back(sim_to_ms(
        tracer->sum("exp.sweep_to_json") + tracer->sum("exp.write_json_file")));
    s["exp.journal.open_ms"].push_back(
        sim_to_ms(tracer->sum("exp.SweepJournal.open") - created_ns));
    s["exp.journal.find_ms"].push_back(
        sim_to_ms(tracer->sum("exp.SweepJournal.find")));
  }
  traced(tracer, "bench.cleanup", id, [&] { fs::remove_all(dir); });
  return std::move(pass.results);
}

double Bench::engine_samples(const Tracer& tracer,
                             const std::vector<exp::SweepResult>& results) {
  // digest() and latency_stats() are called only to time them; the pass
  // they sit in is compared with SweepRunner's pass without them.
  const double stats_ns =
      static_cast<double>(tracer.sum("core.EmulationStats.digest") +
                          tracer.sum("core.EmulationStats.latency_stats"));
  const double pass_ns = static_cast<double>(tracer.sum("pass")) - stats_ns;
  const double init_ns = static_cast<double>(tracer.sum("core.Emulation"));
  const double run_ns =
      static_cast<double>(tracer.sum("core.Emulation.run_until") +
                          tracer.sum("core.Emulation.finish"));
  double tasks = 0.0;
  double events = 0.0;
  for (const exp::SweepResult& result : results) {
    tasks += static_cast<double>(result.stats.tasks.size());
    events += static_cast<double>(result.stats.scheduling_events);
  }
  samples_["core.emulation_init_ms"].push_back(init_ns / 1e6);
  samples_["core.run_ms"].push_back(run_ns / 1e6);
  samples_["core.tasks"].push_back(tasks);
  samples_["core.sched_events"].push_back(events);
  samples_["core.host_ns_per_task"].push_back(
      tasks > 0.0 ? (init_ns + run_ns) / tasks : 0.0);
  samples_["core.stats_digest_ms"].push_back(
      sim_to_ms(tracer.sum("core.EmulationStats.digest")));
  samples_["core.latency_stats_ms"].push_back(
      sim_to_ms(tracer.sum("core.EmulationStats.latency_stats")));
  for (const char* family : {"eft", "met", "frfs"}) {
    samples_[cat("core.", family, ".ns_per_event")].push_back(
        scheduler_timing(family).ns_per_call());
  }
  samples_["policy.table.ns_per_event"].push_back(
      scheduler_timing("table").ns_per_call());
  samples_["core.eft.share_pct"].push_back(
      pass_ns > 0.0
          ? 100.0 * static_cast<double>(scheduler_timing("eft").ns) / pass_ns
          : 0.0);
  return pass_ns;
}

std::vector<exp::SweepPoint> Bench::timed_points() const {
  std::vector<exp::SweepPoint> timed = points_;
  for (exp::SweepPoint& point : timed) {
    point.setup.options.scheduler = timed_spec(point.setup.options.scheduler);
  }
  return timed;
}

std::vector<double> Bench::traced_engine_passes(Tracer& tracer,
                                                double seconds) {
  const std::vector<exp::SweepPoint> timed = timed_points();
  std::vector<double> pass_s;
  repeat_for(seconds, 2, [&](int i) {
    ++passes_;
    tracer.set_recording(i == 0);  // one pass in the trace file is enough
    tracer.clear_sums();
    reset_scheduler_timing();
    std::vector<exp::SweepResult> results;
    run_checked(cat("traced pass ", i), [&] {
      results =
          traced_inproc_pass(timed, tracer, cat(workload_.name, "/pass", i));
      checker_.check_pass(points_, results, cat("traced pass ", i));
    });
    pass_s.push_back(engine_samples(tracer, results) / 1e9);
  });
  tracer.set_recording(true);
  return pass_s;
}

void Bench::journal_warm_up(const std::vector<exp::SweepResult>& results,
                            Tracer* tracer) {
  warm_up_journal_ = cat(scratch_.path(), "/warm-up.journal");
  if (tracer != nullptr) {
    tracer->clear_sums();
  }
  write_journal(points_, results, warm_up_journal_, tracer);
  warm_up_executed_ = executed_of(results);
  if (tracer != nullptr) {
    samples_["exp.journal.append_ms"].push_back(
        sim_to_ms(tracer->sum("exp.SweepJournal.append")));
    samples_["exp.journal.mb"].push_back(
        static_cast<double>(fs::file_size(warm_up_journal_)) / 1e6);
  }
}

void Bench::resume_warm_up(Tracer* tracer, const std::string& id) {
  if (tracer != nullptr) {
    tracer->clear_sums();
  }
  std::optional<exp::SweepJournal> journal;
  const Stopwatch watch;
  const std::vector<const exp::SweepResult*> found =
      resume(points_, warm_up_journal_, journal, tracer, id);
  samples_["resume_s"].push_back(seconds_since(watch));
  check_resumed(checker_, points_, found, warm_up_executed_, id);
  if (tracer != nullptr) {
    samples_["exp.journal.open_ms"].push_back(
        sim_to_ms(tracer->sum("exp.SweepJournal.open")));
    samples_["exp.journal.find_ms"].push_back(
        sim_to_ms(tracer->sum("exp.SweepJournal.find")));
  }
}

// A timed pass is two set-ups, one sweep and one resume, so the three
// end-to-end times sample the same stretch of host time.
void Bench::run_untraced() {
  rebuild(nullptr);
  // peak_rss_mb is read after set-up and the warm-up pass: one complete
  // pass of the workload, before the in-process workloads' resume journal
  // (benchmark scaffolding) exists.
  if (workload_.process_pool) {
    run_checked("warm-up pass", [&] { proc_round(nullptr, "warmup", nullptr); });
    samples_["peak_rss_mb"].push_back(peak_rss_mb());
    repeat_for(options_.seconds, kMinPasses, [&](int i) {
      ++passes_;
      rebuild_for_pass();
      run_checked(cat("pass ", i),
                  [&] { proc_round(nullptr, cat("pass", i), &samples_); });
    });
    // Cross-checks: the same points in-process give the same digests, and
    // the wire codec round-trips every result.
    run_checked("in-process reference", [&] {
      const std::vector<exp::SweepResult> results = inproc_pass(points_);
      checker_.check_pass(points_, results, "in-process reference");
      wire_probe(checker_, results, nullptr, nullptr);
    });
    return;
  }
  run_checked("warm-up pass", [&] {
    const std::vector<exp::SweepResult> results = inproc_pass(points_);
    samples_["peak_rss_mb"].push_back(peak_rss_mb());
    establish_reference(results);
    journal_warm_up(results, nullptr);
  });
  repeat_for(options_.seconds, kMinPasses, [&](int i) {
    ++passes_;
    rebuild_for_pass();
    run_checked(cat("pass ", i), [&] {
      const Stopwatch watch;
      const std::vector<exp::SweepResult> results = inproc_pass(points_);
      samples_["sweep_s"].push_back(seconds_since(watch));
      checker_.check_pass(points_, results, cat("pass ", i));
    });
    run_checked(cat("resume ", i),
                [&] { resume_warm_up(nullptr, cat("resume ", i)); });
  });
  if (std::string(workload_.name) == "fig10") {
    run_checked("snapshot probe",
                [&] { snapshot_probe(checker_, points_, nullptr, nullptr); });
  }
}

void Bench::traced_inproc(Tracer& tracer) {
  run_checked("warm-up pass", [&] {
    const std::vector<exp::SweepResult> results = inproc_pass(points_);
    establish_reference(results);
    journal_warm_up(results, &tracer);
  });
  // Untraced passes: the baseline for trace.overhead_pct, and SweepRunner's
  // own overhead beyond the points it runs.
  repeat_for(options_.seconds / 2, 2, [&](int i) {
    run_checked(cat("untraced pass ", i), [&] {
      const Stopwatch watch;
      const std::vector<exp::SweepResult> results = inproc_pass(points_);
      const double pass_s = seconds_since(watch);
      samples_["untraced_s"].push_back(pass_s);
      double points_ms = 0.0;
      for (const exp::SweepResult& result : results) {
        points_ms += result.wall_ms;
      }
      samples_["exp.inproc.overhead_ms"].push_back(pass_s * 1e3 - points_ms);
      checker_.check_pass(points_, results, cat("untraced pass ", i));
    });
  });

  samples_["traced_s"] = traced_engine_passes(tracer, options_.seconds / 2);

  const std::string name = workload_.name;
  if (name == "fig9") {
    // Kernel execution: the same pass with run_kernels off.
    std::vector<exp::SweepPoint> no_kernels = points_;
    for (exp::SweepPoint& point : no_kernels) {
      point.setup.options.run_kernels = false;
    }
    std::vector<double> off_s;
    repeat_for(0.1 * options_.seconds, 3, [&](int i) {
      run_checked(cat("kernels-off pass ", i), [&] {
        const Stopwatch watch;
        const std::vector<exp::SweepResult> off = inproc_pass(no_kernels);
        off_s.push_back(seconds_since(watch));
        for (const exp::SweepResult& result : off) {
          checker_.expect(result.status == exp::PointStatus::kOk,
                          cat("kernels-off pass: ", result.label));
        }
      });
    });
    const double on_s = sample("untraced_s");
    samples_["apps.kernel_ms"].push_back((on_s - median(off_s)) * 1e3);
    samples_["apps.kernel_share_pct"].push_back(
        on_s > 0.0 ? 100.0 * (on_s - median(off_s)) / on_s : 0.0);
    fft_probe(samples_);
  }
  if (name == "fig10") {
    for (int i = 0; i < 3; ++i) {
      run_checked("snapshot probe",
                  [&] { snapshot_probe(checker_, points_, &tracer, &samples_); });
    }
  }
  repeat_for(0.1 * options_.seconds, kMinResumes, [&](int i) {
    run_checked(cat("resume ", i),
                [&] { resume_warm_up(&tracer, cat("resume ", i)); });
  });
}

void Bench::traced_proc(Tracer& tracer) {
  run_checked("warm-up pass", [&] { proc_round(nullptr, "warmup", nullptr); });
  Samples untraced;
  repeat_for(options_.seconds / 3, 2, [&](int i) {
    run_checked(cat("untraced pass ", i), [&] {
      proc_round(nullptr, cat("untraced", i), &untraced);
    });
  });
  samples_["untraced_s"] = untraced["sweep_s"];

  Samples traced;
  repeat_for(options_.seconds / 3, 2, [&](int i) {
    ++passes_;
    tracer.set_recording(i == 0);
    tracer.clear_sums();
    run_checked(cat("traced pass ", i), [&] {
      const std::string id = cat(workload_.name, "/pass", i);
      std::vector<exp::SweepResult> results;
      // The pass span covers the sweep and its resume.
      tracer.span("pass", id,
                  [&] { results = proc_round(&tracer, id, &traced); });
      wire_probe(checker_, results, &tracer, &traced);
    });
  });
  samples_["traced_s"] = traced["sweep_s"];
  traced.erase("sweep_s");
  traced.erase("resume_s");
  samples_.merge(traced);

  // The engine layers, measured on the same points in-process.
  traced_engine_passes(tracer, options_.seconds / 3);
}

void Bench::run_traced() {
  Tracer tracer;
  setup(&tracer);
  if (workload_.process_pool) {
    traced_proc(tracer);
  } else {
    traced_inproc(tracer);
  }
  const double untraced_s = sample("untraced_s");
  samples_["trace.overhead_pct"].push_back(
      untraced_s > 0.0
          ? 100.0 * (sample("traced_s") - untraced_s) / untraced_s
          : 0.0);

  const Tracer::Totals pass = tracer.totals("pass");
  std::cout << "trace: pass self time "
            << format_double(pass.duration > 0
                                 ? 100.0 * static_cast<double>(pass.self) /
                                       static_cast<double>(pass.duration)
                                 : 0.0,
                             2)
            << "% of the recorded pass; " << tracer.stored()
            << " spans stored, " << tracer.dropped()
            << " timed but not stored\n";
  fs::create_directories(kResultsDir);
  const std::string path = cat(kResultsDir, "/trace-", workload_.name, ".json");
  tracer.write_chrome_trace(path);
  std::cout << "trace: wrote " << path << '\n';
}

void Bench::print_distribution(const std::string& name) const {
  const auto it = samples_.find(name);
  if (it == samples_.end() || it->second.empty()) {
    return;
  }
  const std::vector<double>& passes = it->second;
  std::string tail = "no tail percentile (fewer than 20 passes)";
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(passes.size()) * (1.0 - p / 100.0) >= 10.0) {
      tail = cat("p", p, " ", format_double(percentile(passes, p), 4), " s");
      break;
    }
  }
  std::cout << name << ": " << passes.size() << " passes, fastest "
            << format_double(fastest(name), 4) << " s, median "
            << format_double(median(passes), 4) << " s, slowest "
            << format_double(percentile(passes, 100.0), 4) << " s; " << tail
            << '\n';
}

void Bench::print_and_record(const std::vector<Metric>& metrics) const {
  json::Object values;
  for (const Metric& metric : metrics) {
    json::Object value;
    value.set("value", metric.value);
    value.set("unit", metric.unit);
    values.set(metric.name, std::move(value));
  }
  json::Object result;
  result.set("correct", checker_.failed() == 0);
  result.set("attempted", checker_.attempted());
  result.set("failed", checker_.failed());
  result.set("metrics", std::move(values));
  const json::Value line{std::move(result)};

  if (!options_.record.empty()) {
    json::Object build;
    build.set("build_type", DSSOC_BENCH_BUILD_TYPE);
    build.set("cxx_flags", std::string(trim(DSSOC_BENCH_CXX_FLAGS)));
    build.set("compiler", DSSOC_BENCH_COMPILER);
    build.set("revision", options_.revision);
    build.set("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
    json::Object record;
    record.set("workload", workload_.name);
    record.set("seed", seed_);
    record.set("seconds", options_.seconds);
    record.set("trace", options_.trace);
    record.set("passes", passes_);
    record.set("build", std::move(build));
    record.set("result", line);
    // Every raw sample of the reported metrics, for noise analysis.
    json::Object raw;
    for (const Metric& metric : metrics) {
      const auto it = samples_.find(metric.name);
      if (it != samples_.end()) {
        raw.set(metric.name,
                json::Array(it->second.begin(), it->second.end()));
      }
    }
    record.set("samples", std::move(raw));
    std::ofstream out(options_.record, std::ios::app);
    out << json::Value(std::move(record)).dump() << '\n';
    DSSOC_REQUIRE(out.good(), cat("cannot append to \"", options_.record, "\""));
  }
  std::cout << line.dump() << std::endl;
}

int Bench::run() {
  policy::register_policies();
  register_timed_schedulers();
  std::cout << "dssoc_bench " << workload_.name << ": seed " << seed_ << ", "
            << options_.seconds << " s, trace " << options_.trace << '\n'
            << "build: " << DSSOC_BENCH_BUILD_TYPE << " ["
            << trim(DSSOC_BENCH_CXX_FLAGS) << "] " << DSSOC_BENCH_COMPILER
            << ", revision " << options_.revision << ", nproc "
            << sysconf(_SC_NPROCESSORS_ONLN) << '\n';

  std::vector<Metric> metrics;
  if (options_.trace) {
    run_traced();
    golden_check();
    for (const auto& [name, unit] : kLayerMetrics) {
      metrics.push_back({name, sample(name), unit});
    }
  } else {
    run_untraced();
    golden_check();
    for (const char* name : {"sweep_s", "resume_s"}) {
      print_distribution(name);
    }
    // The fastest pass, not the median: host contention only ever adds
    // time, and it comes in bursts long enough to shift a run's median
    // (README.md, "End to end").
    metrics = {{"setup_s", sample("setup_s"), "s"},
               {"sweep_s", fastest("sweep_s"), "s"},
               {"resume_s", fastest("resume_s"), "s"},
               {"peak_rss_mb", sample("peak_rss_mb"), "MB"}};
  }
  for (const Metric& metric : metrics) {
    std::cout << pad_right(metric.name, 28) << ' '
              << format_double(metric.value, 6) << ' ' << metric.unit << '\n';
  }
  std::cout << "checks: " << checker_.attempted() << " attempted, "
            << checker_.failed() << " failed (failed_ratio "
            << format_double(checker_.attempted() == 0
                                 ? 0.0
                                 : static_cast<double>(checker_.failed()) /
                                       static_cast<double>(checker_.attempted()),
                             6)
            << ")\n";
  for (const std::string& failure : checker_.failures()) {
    std::cout << "  FAILED " << failure << '\n';
  }
  const bool correct = checker_.failed() == 0 && checker_.attempted() > 0;
  if (correct && options_.pin_goldens) {
    pin_goldens(workload_.name, seed_, checker_.reference());
    std::cout << "pinned " << checker_.reference().size() << " digests to "
              << kGoldensPath << '\n';
  }
  print_and_record(metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace dssoc::perf

int main(int argc, char** argv) {
  try {
    const dssoc::perf::Options options =
        dssoc::perf::parse_options(argc, argv);
    dssoc::perf::Bench bench(options,
                             *dssoc::perf::find_workload(options.workload));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "dssoc_bench: " << e.what() << '\n';
    return 2;
  }
}
