#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

namespace femu::obs {

/// Well-known tracks in the exported trace. Worker tracks are numbered
/// kWorkerBase + worker_id; the campaign track carries the serial phase
/// spans (compile, golden, plan, ...) and the journal track the
/// flush slices (flushes are mutex-serialized, so one track suffices).
inline constexpr std::uint32_t kCampaignTrack = 0;
inline constexpr std::uint32_t kJournalTrack = 999;
inline constexpr std::uint32_t kWorkerBase = 1;

/// One completed slice on a track. `name` must be a string literal (or
/// otherwise outlive the recorder) — slices are recorded on hot paths and
/// must not allocate. Optional args (group slices) ride along as plain
/// integers; `has_args` gates their emission.
struct TraceEvent {
  const char* name = "";
  std::uint64_t begin_ns = 0;
  std::uint64_t end_ns = 0;
  bool has_args = false;
  std::uint32_t width = 0;        ///< lane-group word width (64/512)
  std::uint32_t live = 0;         ///< occupied lanes in the group
  std::uint32_t narrowings = 0;   ///< narrowing re-derivations inside the group
  std::uint64_t cone_instrs = 0;  ///< kernel instructions evaluated

  [[nodiscard]] std::uint64_t duration_ns() const noexcept {
    return end_ns - begin_ns;
  }
};

/// Append-only slice buffer for a single track. Each worker owns exactly one
/// TrackBuffer during a run (no sharing, no locks); push is a vector append.
class TrackBuffer {
 public:
  void push(const TraceEvent& event) { events_.push_back(event); }
  [[nodiscard]] const std::vector<TraceEvent>& events() const noexcept {
    return events_;
  }
  [[nodiscard]] bool empty() const noexcept { return events_.empty(); }
  void clear() noexcept { events_.clear(); }

 private:
  std::vector<TraceEvent> events_;
};

/// Collects per-track slice buffers and exports Chrome trace-event JSON
/// (the format chrome://tracing and Perfetto load directly).
///
/// Export details: every event becomes a complete ("X") event with ts/dur in
/// microseconds as decimal fractions of the raw nanoseconds, rebased to the
/// earliest begin across all tracks so traces start near t=0. Each track gets
/// an "M" thread_name metadata record; all tracks share pid 1. Within one
/// track, events may nest (a phase slice inside an enclosing one) but
/// never partially overlap — the JSON is emitted sorted by begin time with
/// ties broken longest-duration-first, which is the nesting order the trace
/// viewers expect.
class TraceRecorder {
 public:
  /// Registers/returns the buffer for `track`. Not thread-safe — call before
  /// worker threads start (the engine pre-registers every worker track). The
  /// returned reference is stable for the recorder's lifetime (tracks are
  /// heap-allocated), so holders survive later registrations.
  TrackBuffer& track(std::uint32_t track_id, std::string track_name);

  [[nodiscard]] bool empty() const noexcept;

  void write_chrome_trace(std::ostream& out) const;

 private:
  struct Track {
    std::uint32_t id = 0;
    std::string name;
    TrackBuffer buffer;
  };
  std::vector<std::unique_ptr<Track>> tracks_;
};

}  // namespace femu::obs
