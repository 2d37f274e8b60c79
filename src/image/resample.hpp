// Chroma resampling for 4:2:0 JPEG. Downsampling is a 2x2 box average (what
// libjpeg's default h2v2 downsampler computes); upsampling is bilinear with
// replicated edges, matching the "fancy upsampling" quality level closely
// enough for round-trip tests.
#pragma once

#include "image/image.hpp"

namespace dnj::image {

/// 2x2 box-average downsample. Odd trailing rows/columns are averaged over
/// the available samples. Output dims are ceil(w/2) x ceil(h/2).
PlaneF downsample_2x2(const PlaneF& plane);

/// Allocation-free variant: resizes `out` in place (reusing its buffer once
/// warm) and writes the same samples downsample_2x2 produces.
void downsample_2x2_into(const PlaneF& plane, PlaneF& out);

/// Bilinear 2x upsample to exactly (out_w, out_h), which must satisfy
/// ceil(out_w/2) == plane.width() and ceil(out_h/2) == plane.height().
/// The JPEG decoder runs the same arithmetic row by row (the simd
/// upsample_h2_row and lerp_rows kernels); tests hold it to this function.
PlaneF upsample_2x2(const PlaneF& plane, int out_w, int out_h);

/// Nearest-neighbour resize to arbitrary dimensions (used by the dataset
/// generator, not the codec).
PlaneF resize_nearest(const PlaneF& plane, int out_w, int out_h);

}  // namespace dnj::image
