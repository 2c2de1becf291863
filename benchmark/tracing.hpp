// Outside-in tracing for the benchmark's traced run: spans recorded around
// the calls the benchmark makes into each module's public API, kept in memory
// and written as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing), plus a timing wrapper around the scheduling policies.
//
// Nothing here reaches inside the emulator: every span boundary is a public
// function call, and the scheduler wrapper is an ordinary registered policy
// that forwards to the real one under its name, so emulated results (and
// their digests) are unchanged by tracing.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace dssoc::perf {

/// Strictly nested, single-threaded span recorder.
class Tracer {
 public:
  Tracer();

  /// Opens a span named `name` (a string literal) whose id is `id` — the
  /// sweep point's label for every span of that point.
  void begin(const char* name, std::string_view id);
  /// Closes the innermost open span; returns its duration in ns.
  std::int64_t end();

  /// Runs `body` inside a span and returns the span's duration in ns.
  template <typename F>
  std::int64_t span(const char* name, std::string_view id, F&& body) {
    begin(name, id);
    try {
      body();
    } catch (...) {
      end();
      throw;
    }
    return end();
  }

  /// While false, spans are still timed but not stored (keeps the trace
  /// file small when a long run repeats the same traced pass many times).
  void set_recording(bool on) { recording_ = on; }

  /// Summed duration in ns of the spans named `name` closed since the last
  /// clear_sums(), stored or not.
  std::int64_t sum(std::string_view name) const;
  void clear_sums() { sums_.clear(); }

  /// Summed duration and self time (duration minus the time its child
  /// spans cover) of every stored span named `name`, in ns.
  struct Totals {
    std::int64_t duration = 0;
    std::int64_t self = 0;
  };
  Totals totals(std::string_view name) const;

  std::size_t stored() const { return spans_.size(); }
  std::size_t dropped() const { return dropped_; }

  /// Writes every stored span as Chrome trace-event JSON ("X" events with
  /// the point id and self time in args). Throws DssocError on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    const char* name = nullptr;
    std::string id;
    std::int64_t start = 0;  ///< ns since the tracer's origin
    std::int64_t duration = 0;
    std::int64_t children = 0;  ///< ns covered by direct child spans
  };
  struct Open {
    const char* name = nullptr;
    std::int64_t start = 0;
    std::int64_t children = 0;
    std::size_t stored = 0;  ///< index into spans_, or kNotStored
  };
  static constexpr std::size_t kNotStored = static_cast<std::size_t>(-1);

  std::int64_t now() const;

  Clock::time_point origin_;
  bool recording_ = true;
  std::size_t dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<Open> open_;
  std::map<std::string_view, std::int64_t> sums_;  ///< names are literals
};

/// Runs `body`, inside a span when `tracer` is non-null. Returns the span's
/// duration in ns (0 untraced, where nothing is timed).
template <typename F>
std::int64_t traced(Tracer* tracer, const char* name, std::string_view id,
                    F&& body) {
  if (tracer == nullptr) {
    body();
    return 0;
  }
  return tracer->span(name, id, body);
}

/// Host time spent in one policy family's schedule() calls.
struct SchedulerTiming {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;

  double ns_per_call() const {
    return calls == 0 ? 0.0
                      : static_cast<double>(ns) / static_cast<double>(calls);
  }
};

/// Registers the "timed:<spec>" scheduler prefix. The policy it creates
/// resolves <spec> through the registry, reports <spec>'s own name (so
/// stats, snapshots and digests are those of the untimed run) and adds the
/// host time of every schedule() call to scheduler_timing(family(<spec>)).
void register_timed_schedulers();

/// "timed:<spec>".
std::string timed_spec(const std::string& spec);

/// Counters of one family: "eft", "met", "frfs" or "table" (policy:table
/// specs). Other specs are counted under "other".
SchedulerTiming& scheduler_timing(const std::string& family);
void reset_scheduler_timing();

}  // namespace dssoc::perf
