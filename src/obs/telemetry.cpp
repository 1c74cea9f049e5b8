#include "obs/telemetry.h"

#include <ostream>
#include <string>

#include "common/error.h"
#include "common/timer.h"

namespace femu::obs {

void WorkerTelemetry::group_slice(std::uint64_t begin_ns,
                                  std::uint64_t end_ns, std::uint32_t width,
                                  std::uint32_t live, std::uint32_t narrowings,
                                  std::uint64_t instrs) {
  TraceEvent event;
  event.name = "group";
  event.begin_ns = begin_ns;
  event.end_ns = end_ns;
  event.has_args = true;
  event.width = width;
  event.live = live;
  event.narrowings = narrowings;
  event.cone_instrs = instrs;
  track_->push(event);

  const std::uint64_t occupancy_pct =
      width != 0 ? (std::uint64_t{100} * live) / width : 0;
  shard_.add(owner_->groups_retired_, 1);
  shard_.add(owner_->faults_retired_, live);
  shard_.add(owner_->lanes_total_, width);
  shard_.add(owner_->narrowings_, narrowings);
  shard_.add(owner_->eval_instrs_, instrs);
  shard_.record(owner_->h_width_, width);
  shard_.record(owner_->h_occupancy_, occupancy_pct);
  shard_.record(owner_->h_narrow_depth_, narrowings);
  shard_.record(owner_->h_group_ns_, end_ns - begin_ns);
  shard_.set_max(owner_->peak_occupancy_, occupancy_pct);

  if (ProgressReporter* progress = owner_->progress_.get()) {
    progress->on_retired(live);
  }
}

TelemetryCollector::TelemetryCollector() {
  groups_retired_ = registry_.add_counter("groups_retired", "groups");
  faults_retired_ = registry_.add_counter("faults_retired", "faults");
  lanes_total_ = registry_.add_counter("lanes_total", "lanes");
  narrowings_ = registry_.add_counter("narrowings", "rederivations");
  eval_instrs_ = registry_.add_counter("eval_instrs", "instructions");
  c_cache_hits_ = registry_.add_counter("artifact_cache_hits", "entries");
  c_cache_misses_ = registry_.add_counter("artifact_cache_misses", "entries");
  c_cache_bytes_read_ =
      registry_.add_counter("artifact_cache_bytes_read", "bytes");
  c_cache_bytes_written_ =
      registry_.add_counter("artifact_cache_bytes_written", "bytes");
  c_live_lane_cycles_ = registry_.add_counter("live_lane_cycles", "lanes");
  c_lane_cycles_ = registry_.add_counter("lane_cycles", "lanes");
  peak_occupancy_ = registry_.add_gauge("peak_group_occupancy_pct", "percent");
  g_lane_cycle_occupancy_ =
      registry_.add_gauge("lane_cycle_occupancy_ppm", "ppm");
  g_opt_raw_instrs_ =
      registry_.add_gauge("kernel_opt_raw_instrs", "instructions");
  g_opt_instrs_ = registry_.add_gauge("kernel_opt_instrs", "instructions");
  g_opt_absorbed_ = registry_.add_gauge("kernel_opt_absorbed", "instructions");
  g_opt_folded_ = registry_.add_gauge("kernel_opt_folded", "instructions");
  g_opt_dead_ = registry_.add_gauge("kernel_opt_dead", "instructions");
  h_width_ = registry_.add_histogram("group_width", "lanes", {64, 512});
  h_occupancy_ = registry_.add_histogram("group_occupancy_pct", "percent",
                                         linear_bounds(10, 10));
  h_narrow_depth_ = registry_.add_histogram("narrowing_depth", "rederivations",
                                            {0, 1, 2, 4, 8, 16, 32, 64});
  // ~1 µs .. ~4 s power-of-two latency ladders.
  h_group_ns_ = registry_.add_histogram("group_ns", "ns", exp2_bounds(10, 32));
  h_flush_ns_ = registry_.add_histogram("journal_flush_ns", "ns",
                                        exp2_bounds(10, 32));

  total_ = registry_.make_shard();
  journal_shard_ = registry_.make_shard();
  campaign_track_ = &recorder_.track(kCampaignTrack, "campaign");
  journal_track_ = &recorder_.track(kJournalTrack, "journal");
}

void TelemetryCollector::enable_progress(std::uint64_t interval_ns) {
  if (!progress_) {
    progress_ = std::make_unique<ProgressReporter>(interval_ns);
  }
}

void TelemetryCollector::begin_run(unsigned num_workers,
                                   std::uint64_t total_faults) {
  FEMU_CHECK(num_workers > 0, "begin_run needs at least one worker");
  workers_.clear();
  workers_.resize(num_workers);
  for (unsigned id = 0; id < num_workers; ++id) {
    workers_[id].owner_ = this;
    workers_[id].shard_ = registry_.make_shard();
    workers_[id].track_ =
        &recorder_.track(kWorkerBase + id, "worker " + std::to_string(id));
  }
  if (progress_) progress_->begin(total_faults);
}

void TelemetryCollector::end_run() {
  // Worker-id-ordered fold — the deterministic reduction. (Integer addition
  // is commutative anyway; the fixed order makes the contract auditable.)
  for (WorkerTelemetry& worker : workers_) {
    total_.merge_from(worker.shard_);
    worker.shard_ = registry_.make_shard();
  }
  if (progress_) {
    progress_->set_peak_occupancy(
        static_cast<std::uint32_t>(peak_occupancy_pct()));
    progress_->finish();
  }
}

void TelemetryCollector::record_campaign_span(const char* name,
                                              std::uint64_t begin_ns,
                                              std::uint64_t end_ns) {
  TraceEvent event;
  event.name = name;
  event.begin_ns = begin_ns;
  event.end_ns = end_ns;
  campaign_track_->push(event);
}

void TelemetryCollector::record_flush(std::uint64_t begin_ns,
                                      std::uint64_t end_ns) {
  TraceEvent event;
  event.name = "journal_flush";
  event.begin_ns = begin_ns;
  event.end_ns = end_ns;
  std::lock_guard<std::mutex> lock(journal_mutex_);
  journal_track_->push(event);
  journal_shard_.record(h_flush_ns_, end_ns - begin_ns);
}

void TelemetryCollector::record_optimizer(
    std::uint64_t raw_instrs, std::uint64_t opt_instrs, std::uint64_t absorbed,
    std::uint64_t folded, std::uint64_t dead) {
  total_.set(g_opt_raw_instrs_, raw_instrs);
  total_.set(g_opt_instrs_, opt_instrs);
  total_.set(g_opt_absorbed_, absorbed);
  total_.set(g_opt_folded_, folded);
  total_.set(g_opt_dead_, dead);
}

void TelemetryCollector::record_lane_cycles(std::uint64_t live,
                                            std::uint64_t total) {
  total_.add(c_live_lane_cycles_, live);
  total_.add(c_lane_cycles_, total);
  const std::uint64_t all = total_.counter(c_lane_cycles_);
  total_.set(g_lane_cycle_occupancy_,
             all != 0 ? total_.counter(c_live_lane_cycles_) * 1'000'000 / all
                      : 0);
}

void TelemetryCollector::record_cache(std::uint64_t hits, std::uint64_t misses,
                                      std::uint64_t bytes_read,
                                      std::uint64_t bytes_written) {
  total_.add(c_cache_hits_, hits);
  total_.add(c_cache_misses_, misses);
  total_.add(c_cache_bytes_read_, bytes_read);
  total_.add(c_cache_bytes_written_, bytes_written);
}

MetricSnapshot TelemetryCollector::snapshot() const {
  MetricShard combined = total_;
  {
    auto& mutex = const_cast<std::mutex&>(journal_mutex_);
    std::lock_guard<std::mutex> lock(mutex);
    combined.merge_from(journal_shard_);
  }
  const MetricShard shards[] = {combined};
  return registry_.merge(shards);
}

std::uint64_t TelemetryCollector::peak_occupancy_pct() const {
  return snapshot().gauges[peak_occupancy_.index];
}

void TelemetryCollector::write_metrics_json(std::ostream& out) const {
  registry_.write_json(out, snapshot());
}

PhaseSpan::PhaseSpan(TelemetryCollector* collector, const char* name)
    : collector_(collector), name_(name) {
  if (collector_ != nullptr) begin_ns_ = now_ns();
}

PhaseSpan::~PhaseSpan() {
  if (collector_ != nullptr) {
    collector_->record_campaign_span(name_, begin_ns_, now_ns());
  }
}

}  // namespace femu::obs
