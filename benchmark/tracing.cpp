#include "tracing.hpp"

#include <cstdio>
#include <fstream>
#include <map>
#include <memory>

#include "common/error.hpp"
#include "common/strings.hpp"
#include "core/scheduler.hpp"
#include "json/json.hpp"

namespace dssoc::perf {

Tracer::Tracer() : origin_(Clock::now()) {}

std::int64_t Tracer::now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

void Tracer::begin(const char* name, std::string_view id) {
  Open open;
  open.name = name;
  if (recording_) {
    open.stored = spans_.size();
    spans_.push_back(Span{name, std::string(id), 0, 0, 0});
  } else {
    open.stored = kNotStored;
    ++dropped_;
  }
  open.start = now();  // last, so bookkeeping stays outside the span
  if (open.stored != kNotStored) {
    spans_[open.stored].start = open.start;
  }
  open_.push_back(open);
}

std::int64_t Tracer::end() {
  const std::int64_t stop = now();
  DSSOC_REQUIRE(!open_.empty(), "Tracer::end() without an open span");
  const Open open = open_.back();
  open_.pop_back();
  const std::int64_t duration = stop - open.start;
  if (open.stored != kNotStored) {
    spans_[open.stored].duration = duration;
    spans_[open.stored].children = open.children;
  }
  if (!open_.empty()) {
    open_.back().children += duration;
  }
  sums_[open.name] += duration;
  return duration;
}

std::int64_t Tracer::sum(std::string_view name) const {
  const auto it = sums_.find(name);
  return it == sums_.end() ? 0 : it->second;
}

Tracer::Totals Tracer::totals(std::string_view name) const {
  Totals totals;
  for (const Span& span : spans_) {
    if (name == span.name) {
      totals.duration += span.duration;
      totals.self += span.duration - span.children;
    }
  }
  return totals;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  DSSOC_REQUIRE(out.good(), cat("cannot write trace file \"", path, "\""));
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char number[64];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << json::escape(span.name)
        << "\",\"cat\":\"dssoc_bench\",\"ph\":\"X\",\"pid\":1,\"tid\":1";
    std::snprintf(number, sizeof(number), ",\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(span.start) / 1e3,
                  static_cast<double>(span.duration) / 1e3);
    out << number << ",\"args\":{\"id\":\"" << json::escape(span.id) << "\"";
    std::snprintf(number, sizeof(number), ",\"self_us\":%.3f}}",
                  static_cast<double>(span.duration - span.children) / 1e3);
    out << number;
  }
  out << "\n]}\n";
  out.close();
  DSSOC_REQUIRE(out.good(), cat("failed writing trace file \"", path, "\""));
}

namespace {

std::map<std::string, SchedulerTiming>& timings() {
  static std::map<std::string, SchedulerTiming> table;
  return table;
}

std::string family(const std::string& spec) {
  if (spec == "EFT") {
    return "eft";
  }
  if (spec == "MET") {
    return "met";
  }
  if (spec == "FRFS") {
    return "frfs";
  }
  return starts_with(spec, "policy:table:") ? "table" : "other";
}

/// Forwards every call to the wrapped policy; only schedule() is timed.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(std::unique_ptr<core::Scheduler> inner,
                 SchedulerTiming& timing)
      : inner_(std::move(inner)), timing_(timing) {}

  const std::string& name() const override { return inner_->name(); }

  void schedule(core::ReadyList& ready,
                std::vector<core::ResourceHandler*>& handlers,
                core::SchedulerContext& ctx) override {
    const auto start = std::chrono::steady_clock::now();
    inner_->schedule(ready, handlers, ctx);
    timing_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    ++timing_.calls;
  }

  void save_state(StateWriter& out) const override {
    inner_->save_state(out);
  }
  void load_state(StateReader& in) override { inner_->load_state(in); }
  bool time_invariant() const override { return inner_->time_invariant(); }

 private:
  std::unique_ptr<core::Scheduler> inner_;
  SchedulerTiming& timing_;
};

}  // namespace

void register_timed_schedulers() {
  core::SchedulerRegistry::instance().register_prefix(
      "timed", [](const std::string& spec) -> std::unique_ptr<core::Scheduler> {
        const std::string inner = spec.substr(spec.find(':') + 1);
        return std::make_unique<TimedScheduler>(
            core::SchedulerRegistry::instance().create(inner),
            scheduler_timing(family(inner)));
      });
}

std::string timed_spec(const std::string& spec) { return "timed:" + spec; }

SchedulerTiming& scheduler_timing(const std::string& name) {
  return timings()[name];
}

void reset_scheduler_timing() {
  for (auto& [name, timing] : timings()) {
    timing = SchedulerTiming{};
  }
}

}  // namespace dssoc::perf
