// Design-job vocabulary: the spec a caller submits, the status a poll
// returns, and the result a finished job yields.
//
// A design job is the paper's offline table-design flow (Algorithm 1
// frequency analysis -> SA annealing) promoted to a served long-running
// workload: rate-controlled against a mean bytes-per-image target via
// jpeg/rate_control, checkpointable mid-anneal (SaStepper::serialize), and
// fanned out into a quality ladder registered into serve::TableRegistry
// under versioned tenant names. The vocabulary lives apart from JobManager
// so the wire/protocol layer can marshal specs and statuses without
// pulling in the execution machinery.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/sa_optimizer.hpp"
#include "data/dataset.hpp"
#include "jpeg/quant.hpp"

namespace dnj::jobs {

/// Lifecycle of a job. Terminal states are kCompleted / kFailed /
/// kCancelled; kPaused is resumable (resubmit with the checkpoint).
enum class JobState : std::uint8_t {
  kQueued = 0,    ///< accepted, waiting for a design worker
  kRunning = 1,   ///< a worker is executing a phase
  kPaused = 2,    ///< hit spec.anneal_limit; checkpoint available
  kCompleted = 3, ///< result available
  kFailed = 4,    ///< typed error in JobStatus::error
  kCancelled = 5, ///< cancel() won the race; checkpoint kept if one exists
};
inline constexpr int kNumJobStates = 6;
const char* job_state_name(JobState state);

/// Pipeline position, for progress reporting and phase spans.
enum class JobPhase : std::uint8_t {
  kPending = 0,     ///< not picked up yet
  kAnalyze = 1,     ///< Algorithm 1 frequency analysis + PLM init table
  kAnneal = 2,      ///< SA segments with periodic checkpoints
  kRateSearch = 3,  ///< dataset-level quality search against the target
  kLadder = 4,      ///< rate points searched + registered as tenants
  kDone = 5,
};
const char* job_phase_name(JobPhase phase);

struct DesignJobSpec {
  /// Representative sample images the table is designed from. A resumed
  /// job may carry more images than the checkpointed run (refine mode);
  /// byte-identical resume requires the identical dataset.
  data::Dataset dataset;

  /// Registry name the designed config is published under. The ladder's
  /// extra rate points are registered as "<tenant>:r<i>". Must be
  /// non-empty.
  std::string tenant;

  /// Rate target: mean entropy-coded scan bytes per image. 0 = no rate
  /// control (the designed table is registered at its midpoint, quality
  /// 50).
  double target_bytes_per_image = 0.0;

  /// Additional rate points (mean bytes/image) for the quality ladder;
  /// each gets its own rate search and versioned registry entry.
  std::vector<double> ladder;

  /// Annealing schedule. sa.num_threads uses the job worker's thread
  /// budget; the trajectory is thread-count-invariant either way.
  core::SaConfig sa;

  /// Algorithm 1 sampling interval (every k-th image per class).
  int sample_interval = 1;

  /// Deterministic pause point: when > 0 the job checkpoints and parks in
  /// kPaused once the SA iteration counter reaches this value. 0 = run to
  /// completion. Resume by submitting a new job with `checkpoint` set.
  int anneal_limit = 0;

  /// SaStepper checkpoint to resume from (empty = fresh run). The analyze
  /// phase still runs — the stepper needs the cost surface — but the
  /// optimizer state (tables, temperature, RNG stream) continues from
  /// here.
  std::vector<std::uint8_t> checkpoint;

  /// Byte quota recorded on every registry entry it publishes (bookkeeping;
  /// nothing enforces it).
  std::size_t quota_bytes = 0;
};

/// One registered rate point of the quality ladder.
struct LadderRung {
  std::string name;            ///< registry tenant name
  std::uint64_t version = 0;   ///< registry publication stamp
  int quality = 50;            ///< IJG scaling applied to the designed pair
  double target_bytes = 0.0;   ///< requested mean bytes/image
  double achieved_bytes = 0.0; ///< measured mean bytes/image at `quality`
};

struct JobStatus {
  std::uint64_t id = 0;
  JobState state = JobState::kQueued;
  JobPhase phase = JobPhase::kPending;
  /// Coarse fraction of the whole job in [0, 1]; SA iterations dominate.
  double progress = 0.0;
  std::uint32_t sa_iteration = 0;  ///< SA iterations completed
  std::uint32_t sa_total = 0;      ///< spec.sa.iterations
  double target_bytes = 0.0;       ///< spec target (0 = uncontrolled)
  double achieved_bytes = 0.0;     ///< mean bytes/image at the chosen rate point
  double rate_error = 0.0;         ///< |achieved - target| / target (0 when no target)
  std::uint32_t checkpoints = 0;   ///< checkpoints taken so far
  std::uint32_t rungs = 0;         ///< ladder rungs registered so far
  std::string error;               ///< non-empty iff state == kFailed
};

struct JobResult {
  std::uint64_t id = 0;
  jpeg::QuantTable table;        ///< the annealed DeepN table
  int quality = 50;              ///< rate-search quality for the primary target
  double target_bytes = 0.0;
  double achieved_bytes = 0.0;   ///< mean scan bytes/image at `quality`
  double initial_cost = 0.0;
  double best_cost = 0.0;
  int accepted_moves = 0;
  std::uint32_t sa_iterations = 0;
  std::vector<LadderRung> rungs;
  /// Optimizer state at the end of the run — the resume blob for kPaused
  /// jobs and the refine seed for completed ones.
  std::vector<std::uint8_t> checkpoint;
};

}  // namespace dnj::jobs
