#include "jpeg/bitio.hpp"

#include <stdexcept>

#include "simd/dispatch.hpp"

namespace dnj::jpeg {

void BitWriter::spill() {
  if (buf_len_ == 0) return;
  // Stuff into a stack staging area, then append in one insert. The kernel
  // contract guarantees at most 2x growth, and the vector sees exactly one
  // range insert per spill instead of per-byte push_backs.
  std::uint8_t stuffed[2 * kBufSize];
  const std::size_t n = simd::kernels().stuff_bytes(buf_.data(), buf_len_, stuffed);
  out_.insert(out_.end(), stuffed, stuffed + n);
  buf_len_ = 0;
}

void BitWriter::flush() {
  // Drain whole bytes, then pad the partial byte with 1-bits per T.81
  // B.1.1.5, then push the staging buffer out (stuffing happens there).
  while (bit_count_ >= 8) {
    if (buf_len_ + 1 > kBufSize) spill();
    buf_[buf_len_++] = static_cast<std::uint8_t>((acc_ >> (bit_count_ - 8)) & 0xFF);
    bit_count_ -= 8;
  }
  if (bit_count_ > 0) {
    const int pad = 8 - bit_count_;
    if (buf_len_ + 1 > kBufSize) spill();
    buf_[buf_len_++] =
        static_cast<std::uint8_t>(((acc_ << pad) | ((1u << pad) - 1u)) & 0xFF);
    bit_count_ = 0;
  }
  acc_ = 0;
  spill();
}

void BitWriter::put_marker(std::uint8_t code) {
  flush();
  out_.push_back(0xFF);
  out_.push_back(code);
}

int BitReader::next_data_byte() {
  while (pos_ < size_) {
    const std::uint8_t b = data_[pos_];
    if (b != 0xFF) {
      ++pos_;
      return b;
    }
    // 0xFF: look at the next byte.
    if (pos_ + 1 >= size_) return -1;
    const std::uint8_t next = data_[pos_ + 1];
    if (next == 0x00) {  // stuffed data byte
      pos_ += 2;
      return 0xFF;
    }
    if (next == 0xFF) {  // fill byte, skip one 0xFF and retry
      ++pos_;
      continue;
    }
    return -1;  // real marker: stop bit delivery
  }
  return -1;
}

BitReader BitReader::walk_bytes(BitReader r) {
  while (r.bit_count_ <= 56) {
    const int b = r.next_data_byte();
    if (b < 0) break;
    r.acc_ |= static_cast<std::uint64_t>(b) << (56 - r.bit_count_);
    r.bit_count_ += 8;
  }
  return r;
}

bool BitReader::at_marker() const { return peek_marker() != 0; }

std::uint8_t BitReader::peek_marker() const {
  std::size_t p = pos_;
  while (p + 1 < size_ && data_[p] == 0xFF && data_[p + 1] == 0xFF) ++p;
  if (p + 1 < size_ && data_[p] == 0xFF && data_[p + 1] != 0x00) return data_[p + 1];
  return 0;
}

std::uint8_t BitReader::take_marker() {
  while (pos_ + 1 < size_ && data_[pos_] == 0xFF && data_[pos_ + 1] == 0xFF) ++pos_;
  if (pos_ + 1 >= size_ || data_[pos_] != 0xFF)
    throw std::runtime_error("BitReader: expected marker");
  const std::uint8_t code = data_[pos_ + 1];
  pos_ += 2;
  acc_ = 0;
  bit_count_ = 0;
  return code;
}

}  // namespace dnj::jpeg
