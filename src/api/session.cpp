// Implementation of the synchronous façade (Session / Codec /
// TableDesigner) plus the shared conversion/validation glue in
// api/convert.hpp. This file is the exception boundary: nothing below it
// throws out of a public entry point.
#include "api/session.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <vector>

#include "api/convert.hpp"
#include "base/fnv1a.hpp"
#include "core/deepnjpeg.hpp"
#include "core/transcode.hpp"
#include "jobs/job_manager.hpp"
#include "jpeg/decoder.hpp"
#include "jpeg/encoder.hpp"

namespace dnj::api {

namespace detail {

jpeg::EncoderConfig to_config(const EncodeOptions& options) {
  jpeg::EncoderConfig cfg;
  cfg.quality = options.quality();
  cfg.use_custom_tables = options.uses_custom_tables();
  if (cfg.use_custom_tables) {
    cfg.luma_table = jpeg::QuantTable(options.luma_table());
    cfg.chroma_table = jpeg::QuantTable(options.chroma_table());
  }
  cfg.subsampling =
      options.chroma_420() ? jpeg::Subsampling::k420 : jpeg::Subsampling::k444;
  cfg.optimize_huffman = options.optimize_huffman();
  cfg.restart_interval = options.restart_interval();
  cfg.comment = options.comment();
  return cfg;
}

EncodeOptions from_config(const jpeg::EncoderConfig& config) {
  EncodeOptions options;
  options.quality(config.quality);
  if (config.use_custom_tables)
    options.custom_tables(config.luma_table.natural(), config.chroma_table.natural());
  options.chroma_420(config.subsampling == jpeg::Subsampling::k420);
  options.optimize_huffman(config.optimize_huffman);
  options.restart_interval(config.restart_interval);
  options.comment(config.comment);
  return options;
}

Status validate_image(ImageView image) {
  if (image.pixels == nullptr)
    return {StatusCode::kInvalidArgument, "image view has null pixels"};
  if (image.width <= 0 || image.height <= 0)
    return {StatusCode::kInvalidArgument, "image dimensions must be positive"};
  if (image.width > kMaxImageDimension || image.height > kMaxImageDimension)
    return {StatusCode::kInvalidArgument,
            "image dimensions exceed the baseline JPEG maximum of 65535"};
  if (image.channels != 1 && image.channels != 3)
    return {StatusCode::kInvalidArgument, "image channels must be 1 or 3"};
  return Status::success();
}

Status validate_stream(ByteSpan stream) {
  if (stream.data == nullptr || stream.size == 0)
    return {StatusCode::kInvalidArgument, "byte stream is null or empty"};
  return Status::success();
}

Status validate_options(const EncodeOptions& options) {
  if (!options.uses_custom_tables() &&
      (options.quality() < 1 || options.quality() > 100))
    return {StatusCode::kInvalidArgument, "quality must be in [1, 100]"};
  if (options.restart_interval() < 0 || options.restart_interval() > 65535)
    return {StatusCode::kInvalidArgument, "restart interval must be in [0, 65535]"};
  return Status::success();
}

Status map_exception(StatusCode runtime_code) {
  try {
    throw;
  } catch (const std::invalid_argument& e) {
    return {StatusCode::kInvalidArgument, e.what()};
  } catch (const std::out_of_range& e) {
    return {StatusCode::kInvalidArgument, e.what()};
  } catch (const std::runtime_error& e) {
    return {runtime_code, e.what()};
  } catch (const std::exception& e) {
    return {StatusCode::kInternal, e.what()};
  } catch (...) {
    return {StatusCode::kInternal, "non-standard exception"};
  }
}

}  // namespace detail

// The public job-state enum mirrors the job layer's value-for-value, so
// the conversion below is a cast, never a table.
static_assert(static_cast<int>(DesignJobState::kQueued) ==
              static_cast<int>(jobs::JobState::kQueued));
static_assert(static_cast<int>(DesignJobState::kRunning) ==
              static_cast<int>(jobs::JobState::kRunning));
static_assert(static_cast<int>(DesignJobState::kPaused) ==
              static_cast<int>(jobs::JobState::kPaused));
static_assert(static_cast<int>(DesignJobState::kCompleted) ==
              static_cast<int>(jobs::JobState::kCompleted));
static_assert(static_cast<int>(DesignJobState::kFailed) ==
              static_cast<int>(jobs::JobState::kFailed));
static_assert(static_cast<int>(DesignJobState::kCancelled) ==
              static_cast<int>(jobs::JobState::kCancelled));

const char* design_job_state_name(DesignJobState state) {
  return jobs::job_state_name(static_cast<jobs::JobState>(state));
}

namespace {

/// JobRc -> the API taxonomy (the mapping documented in job_manager.hpp).
Status status_from_job_rc(jobs::JobRc rc, std::uint64_t job_id) {
  const std::string id = std::to_string(job_id);
  switch (rc) {
    case jobs::JobRc::kOk: return Status::success();
    case jobs::JobRc::kNotFound:
      return {StatusCode::kInvalidArgument, "unknown job id " + id};
    case jobs::JobRc::kDuplicate:
      return {StatusCode::kInvalidArgument, "job id " + id + " already exists"};
    case jobs::JobRc::kInvalid:
      return {StatusCode::kInvalidArgument, "invalid job spec"};
    case jobs::JobRc::kQueueFull: return {StatusCode::kRejected, "job queue full"};
    case jobs::JobRc::kNotFinished:
      return {StatusCode::kRejected, "job " + id + " not finished"};
    case jobs::JobRc::kShutdown:
      return {StatusCode::kShutdown, "job manager draining"};
  }
  return {StatusCode::kInternal, "unexpected job return code"};
}

DesignJobStatus to_api_status(const jobs::JobStatus& s) {
  DesignJobStatus out;
  out.id = s.id;
  out.state = static_cast<DesignJobState>(s.state);
  out.phase = jobs::job_phase_name(s.phase);
  out.progress = s.progress;
  out.sa_iteration = s.sa_iteration;
  out.sa_total = s.sa_total;
  out.target_bytes = s.target_bytes;
  out.achieved_bytes = s.achieved_bytes;
  out.rate_error = s.rate_error;
  out.checkpoints = s.checkpoints;
  out.rungs = s.rungs;
  out.error = s.error;
  return out;
}

DesignJobResult to_api_result(jobs::JobResult&& r) {
  DesignJobResult out;
  out.id = r.id;
  out.table = r.table.natural();
  out.quality = r.quality;
  out.target_bytes = r.target_bytes;
  out.achieved_bytes = r.achieved_bytes;
  out.initial_cost = r.initial_cost;
  out.best_cost = r.best_cost;
  out.accepted_moves = r.accepted_moves;
  out.sa_iterations = r.sa_iterations;
  out.rungs.reserve(r.rungs.size());
  for (jobs::LadderRung& rung : r.rungs) {
    DesignLadderRung api_rung;
    api_rung.name = std::move(rung.name);
    api_rung.version = rung.version;
    api_rung.quality = rung.quality;
    api_rung.target_bytes = rung.target_bytes;
    api_rung.achieved_bytes = rung.achieved_bytes;
    out.rungs.push_back(std::move(api_rung));
  }
  out.checkpoint = std::move(r.checkpoint);
  return out;
}

}  // namespace

const char* status_code_name(StatusCode code) {
  switch (code) {
    case StatusCode::kOk: return "ok";
    case StatusCode::kInvalidArgument: return "invalid_argument";
    case StatusCode::kDecodeError: return "decode_error";
    case StatusCode::kRejected: return "rejected";
    case StatusCode::kShutdown: return "shutdown";
    case StatusCode::kInternal: return "internal";
  }
  return "unknown";
}

std::uint32_t api_version() { return (kApiVersionMajor << 16) | kApiVersionMinor; }

std::uint64_t EncodeOptions::digest() const {
  // The canonical serialization is owned by the codec layer
  // (jpeg::append_config_bytes), so a field added there changes this
  // digest too. Thread-local scratch: no allocation once warm.
  static thread_local std::vector<std::uint8_t> bytes;
  bytes.clear();
  jpeg::append_config_bytes(detail::to_config(*this), bytes);
  return fnv1a(bytes.data(), bytes.size());
}

// Session state is deliberately empty today: codec operations bind to the
// calling thread's codec context (see the header contract), so the handle
// carries identity and future configuration, not arenas. Kept as a pimpl
// so state can grow without an ABI-visible change.
struct Session::Impl {};

Session::Session() : impl_(std::make_unique<Impl>()) {}
Session::~Session() = default;
Session::Session(Session&&) noexcept = default;
Session& Session::operator=(Session&&) noexcept = default;

Codec Session::codec() { return Codec(this); }

TableDesigner Session::designer() { return TableDesigner(); }

Result<std::vector<std::uint8_t>> Codec::encode(ImageView image,
                                                const EncodeOptions& options) const {
  if (Status s = detail::validate_image(image); !s.ok()) return s;
  if (Status s = detail::validate_options(options); !s.ok()) return s;
  try {
    return jpeg::encode(image, detail::to_config(options),
                        jpeg::pipeline::thread_codec_context());
  } catch (...) {
    return detail::map_exception(StatusCode::kInternal);
  }
}

Result<DecodedImage> Codec::decode(ByteSpan stream) const {
  if (Status s = detail::validate_stream(stream); !s.ok()) return s;
  try {
    image::Image img = jpeg::decode(stream, jpeg::pipeline::thread_codec_context());
    DecodedImage out;
    out.width = img.width();
    out.height = img.height();
    out.channels = img.channels();
    out.pixels = std::move(img.data());
    return out;
  } catch (...) {
    return detail::map_exception(StatusCode::kDecodeError);
  }
}

Result<std::vector<std::uint8_t>> Codec::transcode(ByteSpan stream,
                                                   const EncodeOptions& options) const {
  if (Status s = detail::validate_stream(stream); !s.ok()) return s;
  if (Status s = detail::validate_options(options); !s.ok()) return s;
  try {
    return core::transcode_bytes(stream, detail::to_config(options),
                                 jpeg::pipeline::thread_codec_context());
  } catch (...) {
    // The decode leg is the overwhelmingly likely thrower; encode-side
    // argument errors still surface as kInvalidArgument via the map.
    return detail::map_exception(StatusCode::kDecodeError);
  }
}

Result<StreamInfo> Codec::inspect(ByteSpan stream) const {
  if (Status s = detail::validate_stream(stream); !s.ok()) return s;
  try {
    const jpeg::JpegInfo info = jpeg::parse_info(stream);
    StreamInfo out;
    out.width = info.width;
    out.height = info.height;
    out.components = info.components;
    out.restart_interval = info.restart_interval;
    out.comment = info.comment;
    return out;
  } catch (...) {
    return detail::map_exception(StatusCode::kDecodeError);
  }
}

struct TableDesigner::Impl {
  data::Dataset dataset;
  int max_label = -1;
  /// Private job manager behind the async entry points; created lazily at
  /// the first submit() so purely synchronous designers stay thread-free.
  std::unique_ptr<jobs::JobManager> jobs;

  jobs::JobManager& manager() {
    if (!jobs) {
      jobs::JobManagerConfig cfg;
      cfg.workers = 1;
      jobs = std::make_unique<jobs::JobManager>(std::move(cfg));
    }
    return *jobs;
  }
};

TableDesigner::TableDesigner() : impl_(std::make_unique<Impl>()) {}
TableDesigner::~TableDesigner() = default;
TableDesigner::TableDesigner(TableDesigner&&) noexcept = default;
TableDesigner& TableDesigner::operator=(TableDesigner&&) noexcept = default;

Status TableDesigner::add(ImageView image, int label) {
  if (Status s = detail::validate_image(image); !s.ok()) return s;
  if (label < 0) return {StatusCode::kInvalidArgument, "label must be >= 0"};
  try {
    image::Image owned(image.width, image.height, image.channels);
    std::memcpy(owned.data().data(), image.pixels, image.byte_size());
    impl_->dataset.samples.push_back({std::move(owned), label});
    impl_->max_label = std::max(impl_->max_label, label);
    impl_->dataset.num_classes = impl_->max_label + 1;
    return Status::success();
  } catch (...) {
    return detail::map_exception(StatusCode::kInternal);
  }
}

std::size_t TableDesigner::image_count() const { return impl_->dataset.size(); }

Result<TableDesign> TableDesigner::design(const DesignOptions& options) const {
  if (impl_->dataset.empty())
    return Status{StatusCode::kInvalidArgument, "no images added to the designer"};
  if (options.sample_interval() < 1)
    return Status{StatusCode::kInvalidArgument, "sample interval must be >= 1"};
  try {
    core::DesignConfig cfg;
    cfg.analysis.sample_interval = options.sample_interval();
    cfg.dataset_thresholds = options.dataset_thresholds();
    cfg.optimize_huffman = options.optimize_huffman();
    const core::DesignResult result = core::DeepNJpeg::design(impl_->dataset, cfg);
    TableDesign design;
    design.table = result.table.natural();
    design.t1 = result.params.t1;
    design.t2 = result.params.t2;
    design.images_analyzed = result.profile.images_analyzed;
    design.blocks_analyzed = result.profile.blocks_analyzed;
    design.optimize_huffman = options.optimize_huffman();
    return design;
  } catch (...) {
    return Result<TableDesign>(detail::map_exception(StatusCode::kInternal));
  }
}

Result<std::uint64_t> TableDesigner::submit(const DesignJobOptions& options) {
  if (impl_->dataset.empty())
    return Status{StatusCode::kInvalidArgument, "no images added to the designer"};
  if (options.tenant().empty())
    return Status{StatusCode::kInvalidArgument, "tenant name must not be empty"};
  if (options.sa_iterations() < 1)
    return Status{StatusCode::kInvalidArgument, "sa_iterations must be >= 1"};
  if (options.sample_interval() < 1)
    return Status{StatusCode::kInvalidArgument, "sample interval must be >= 1"};
  try {
    jobs::DesignJobSpec spec;
    spec.dataset = impl_->dataset;  // snapshot: later add()s affect later jobs
    spec.tenant = options.tenant();
    spec.target_bytes_per_image = options.target_bytes_per_image();
    spec.ladder = options.ladder();
    spec.sa.iterations = options.sa_iterations();
    spec.sa.seed = options.sa_seed();
    spec.sample_interval = options.sample_interval();
    spec.anneal_limit = options.anneal_limit();
    spec.checkpoint = options.checkpoint();
    std::uint64_t id = 0;
    const jobs::JobRc rc = impl_->manager().submit(std::move(spec), 0, &id);
    if (rc != jobs::JobRc::kOk) return status_from_job_rc(rc, 0);
    return id;
  } catch (...) {
    return Result<std::uint64_t>(detail::map_exception(StatusCode::kInternal));
  }
}

Result<DesignJobStatus> TableDesigner::poll(std::uint64_t job_id) const {
  if (!impl_->jobs)
    return Status{StatusCode::kInvalidArgument, "unknown job id " + std::to_string(job_id)};
  jobs::JobStatus status;
  const jobs::JobRc rc = impl_->jobs->status(job_id, &status);
  if (rc != jobs::JobRc::kOk) return status_from_job_rc(rc, job_id);
  return to_api_status(status);
}

Status TableDesigner::cancel(std::uint64_t job_id) {
  if (!impl_->jobs)
    return {StatusCode::kInvalidArgument, "unknown job id " + std::to_string(job_id)};
  return status_from_job_rc(impl_->jobs->cancel(job_id), job_id);
}

Result<DesignJobResult> TableDesigner::fetch(std::uint64_t job_id) const {
  if (!impl_->jobs)
    return Status{StatusCode::kInvalidArgument, "unknown job id " + std::to_string(job_id)};
  jobs::JobResult result;
  const jobs::JobRc rc = impl_->jobs->result(job_id, &result);
  if (rc != jobs::JobRc::kOk) return status_from_job_rc(rc, job_id);
  return to_api_result(std::move(result));
}

Result<DesignJobStatus> TableDesigner::wait(std::uint64_t job_id) const {
  if (!impl_->jobs)
    return Status{StatusCode::kInvalidArgument, "unknown job id " + std::to_string(job_id)};
  jobs::JobStatus status;
  const jobs::JobRc rc = impl_->jobs->wait(job_id, &status);
  if (rc != jobs::JobRc::kOk) return status_from_job_rc(rc, job_id);
  return to_api_status(status);
}

}  // namespace dnj::api
