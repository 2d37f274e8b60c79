// The benchmark's workloads: their declared load shape, the inputs each
// one generates from its seed, and the catalog of distinct wire requests
// (pre-serialized frames plus the payload every reply must carry).
//
// A workload's life in one run:
//   make_inputs(seed)        images and uploads; not part of setup_s
//   design_tables(inputs)    DeepN design through api::TableDesigner; the
//                            deployment's start-up work, inside setup_s
//   build_catalog(...)       expectations through api::Codec; not timed
//   Catalog::pick(k)         which catalog item request k sends
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/dnj.hpp"
#include "image/image.hpp"
#include "net/frame.hpp"

namespace wb {

/// Load shape of one workload. These constants are the benchmark's
/// definition: they are never calibrated per run, so a before run and an
/// after run offer the same load.
struct WorkloadSpec {
  const char* name;
  double offered_rps;  ///< open-loop arrival rate (paced, seeded jitter)
  int depth;           ///< closed-loop requests in flight, over all connections
  double slo_ms;       ///< latency limit behind slo_ok_ratio
};

/// All workloads, in BENCHMARK.json order.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

/// Inputs generated from the seed before any timing starts.
struct Inputs {
  std::uint64_t seed = 0;
  std::vector<dnj::image::Image> server_sample;              ///< designs the server pair
  std::vector<std::vector<dnj::image::Image>> tenant_samples;  ///< one per tenant
  std::vector<dnj::image::Image> encode_images;  ///< images encode requests carry
  std::vector<int> encode_tenant;                ///< tenant of each encode image (-1 = none)
  std::size_t hot_encodes = 0;                   ///< first N encode images form the hot set
  std::vector<dnj::image::Image> upload_images;  ///< images behind the decode uploads
  std::vector<int> upload_tenant;                ///< tables each upload was encoded with
};

Inputs make_inputs(const WorkloadSpec& spec, std::uint64_t seed);

/// The deployment's designed tables: the server's DeepN pair and one
/// design per tenant.
struct Tables {
  dnj::api::TableDesign server;
  std::vector<dnj::api::TableDesign> tenants;
  bool operator==(const Tables& o) const;
};

/// Runs the DeepN design flow (api::TableDesigner) on the setup samples.
/// Returns false and fills *error when the façade refuses.
bool design_tables(const Inputs& inputs, Tables* out, std::string* error);

/// One distinct request. `frame` is the serialized request frame with
/// request_id 0; the generator writes its own id into a header copy.
struct Item {
  dnj::net::Op op = dnj::net::Op::kPing;
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> want;  ///< expected JPEG bytes (encodes) or pixels (decodes)
  int width = 0, height = 0, channels = 0;  ///< of the expected decode output
};

class Catalog {
 public:
  std::vector<Item> items;

  /// Item sent by request k of a run (deterministic in seed and k).
  std::size_t pick(std::uint64_t k) const;

  // Mix, by item ranges: [0, decode_end) decodes, then the hot encodes,
  // then the cold encodes. The cold ones are walked in a cycle longer than
  // the result cache, so they always miss it.
  std::uint64_t seed = 0;
  std::size_t decode_end = 0, hot_end = 0;
  double decode_share = 0.0;
  double hot_share = 0.0;  ///< of all requests
  bool cycle = false;      ///< walk the encodes in order instead of drawing them

  // A few of the served inputs again, for the direct single-thread
  // api::Codec timings: images with the options they are encoded under,
  // and JPEG streams (the uploads, or the expected encode outputs).
  struct DirectEncode {
    dnj::image::Image image;
    dnj::api::EncodeOptions options;
  };
  std::vector<DirectEncode> direct_encodes;
  std::vector<std::vector<std::uint8_t>> direct_streams;
};

/// Builds every item's frame and expected payload through api::Codec,
/// consuming the inputs (large frames are released as they are serialized).
bool build_catalog(Inputs inputs, const Tables& tables, Catalog* out, std::string* error);

/// The request sent once per setup to obtain the first OK reply: an
/// encode of the first server-sample image under the default options.
Item first_request(const Inputs& inputs, std::string* error);

/// Splitmix64 finalizer: the benchmark's one source of seeded randomness.
std::uint64_t mix64(std::uint64_t x);
inline double unit(std::uint64_t r) { return static_cast<double>(r >> 11) * 0x1.0p-53; }

}  // namespace wb
