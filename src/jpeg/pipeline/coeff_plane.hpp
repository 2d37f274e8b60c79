// Contiguous structure-of-arrays coefficient storage — the codec pipeline's
// working representation for a run of 8x8 blocks: one MCU row (stripe) of
// every component on the encode side, one whole frame component on the
// decode side.
//
// A CoeffPlane holds its blocks back to back with a stride of 64 floats:
// block (bx, by) of the grid lives at data()[(by * blocks_x + bx) * 64] in
// natural (row-major) order. This is the layout the batched transforms
// (jpeg::fdct_batch / jpeg::idct_batch) and the batched quantize pass
// operate on, replacing the seed's per-image std::vector<BlockF> with one
// flat reusable buffer.
//
// QuantPlane is the int16 sibling that the entropy coder reads and writes:
// 64 natural-order quantized coefficients per block, same block addressing.
//
// Both containers reshape without releasing capacity, so a warm
// CodecContext performs no per-block and no per-image allocations.
#pragma once

#include <cstdint>
#include <vector>

#include "image/blocks.hpp"

namespace dnj::jpeg::pipeline {

class CoeffPlane {
 public:
  /// Resizes to a blocks_x * blocks_y grid. Existing capacity is reused;
  /// sample values are unspecified afterwards.
  void reshape(int blocks_x, int blocks_y) {
    blocks_x_ = blocks_x;
    blocks_y_ = blocks_y;
    data_.resize(static_cast<std::size_t>(blocks_x) * blocks_y * image::kBlockSize);
  }

  int blocks_x() const { return blocks_x_; }
  int blocks_y() const { return blocks_y_; }
  std::size_t block_count() const { return static_cast<std::size_t>(blocks_x_) * blocks_y_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  float* block(std::size_t b) { return data_.data() + b * image::kBlockSize; }
  const float* block(std::size_t b) const { return data_.data() + b * image::kBlockSize; }

  /// Tiles `plane` into this grid (edge replication past the plane bounds)
  /// with `bias` added to every sample; pass -128 to fuse the JPEG level
  /// shift. Reuses the buffer — no allocation once warm.
  void tile_from(const image::PlaneF& plane, int blocks_x, int blocks_y, float bias);

 private:
  int blocks_x_ = 0;
  int blocks_y_ = 0;
  std::vector<float> data_;
};

class QuantPlane {
 public:
  void reshape(int blocks_x, int blocks_y) {
    blocks_x_ = blocks_x;
    blocks_y_ = blocks_y;
    data_.resize(static_cast<std::size_t>(blocks_x) * blocks_y * image::kBlockSize);
  }

  int blocks_x() const { return blocks_x_; }
  int blocks_y() const { return blocks_y_; }
  std::size_t block_count() const { return static_cast<std::size_t>(blocks_x_) * blocks_y_; }

  std::int16_t* data() { return data_.data(); }
  const std::int16_t* data() const { return data_.data(); }
  std::int16_t* block(std::size_t b) { return data_.data() + b * image::kBlockSize; }
  const std::int16_t* block(std::size_t b) const {
    return data_.data() + b * image::kBlockSize;
  }

 private:
  int blocks_x_ = 0;
  int blocks_y_ = 0;
  std::vector<std::int16_t> data_;
};

}  // namespace dnj::jpeg::pipeline
