// INTERNAL glue between the public API types and the codec-layer types.
// Not part of the public surface (do not include from embedder code):
// this header exists so api/*.cpp share one conversion and one validation
// story when crossing the boundary. No layer below src/api includes it.
#pragma once

#include <memory>

#include "api/registry.hpp"
#include "api/status.hpp"
#include "api/types.hpp"
#include "jpeg/encoder.hpp"

namespace dnj::serve {
class TableRegistry;
}

namespace dnj::api::detail {

/// EncodeOptions -> the codec's EncoderConfig. Total (no validation):
/// every representable options value maps; validate first.
jpeg::EncoderConfig to_config(const EncodeOptions& options);

/// EncoderConfig -> EncodeOptions, field-for-field. to_config(from_config(c))
/// reproduces `c` exactly (api::Registry reports a tenant's options this
/// way).
EncodeOptions from_config(const jpeg::EncoderConfig& config);

/// Boundary validation: ok() or kInvalidArgument with a precise message.
Status validate_image(ImageView image);
Status validate_stream(ByteSpan stream);
Status validate_options(const EncodeOptions& options);

/// Maps the in-flight exception (call inside a catch block) to a Status.
/// std::invalid_argument / std::out_of_range become kInvalidArgument,
/// std::runtime_error becomes `runtime_code` (kDecodeError on decode-side
/// paths, kInternal elsewhere), anything else kInternal.
Status map_exception(StatusCode runtime_code);

/// Bridges api::Registry to its serve-layer implementation (defined in
/// registry.cpp, where Registry's privates are reachable). Internal glue:
/// the serving layer and the Service façade share registry instances
/// through this, without shared_ptr<TableRegistry> appearing in any
/// public signature.
struct RegistryAccess {
  static const std::shared_ptr<serve::TableRegistry>& impl(const Registry& r);
  static Registry wrap(std::shared_ptr<serve::TableRegistry> impl);
};

}  // namespace dnj::api::detail
