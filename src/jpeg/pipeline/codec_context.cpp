#include "jpeg/pipeline/codec_context.hpp"

#include <algorithm>
#include <stdexcept>

namespace dnj::jpeg::pipeline {

CodecContext::StaticHuffman::StaticHuffman()
    : dc_luma_spec(HuffmanSpec::default_dc_luma()),
      ac_luma_spec(HuffmanSpec::default_ac_luma()),
      dc_chroma_spec(HuffmanSpec::default_dc_chroma()),
      ac_chroma_spec(HuffmanSpec::default_ac_chroma()),
      dc_luma(dc_luma_spec),
      ac_luma(ac_luma_spec),
      dc_chroma(dc_chroma_spec),
      ac_chroma(ac_chroma_spec) {}

const CodecContext::StaticHuffman& CodecContext::static_huffman() {
  if (!static_huffman_) {
    static_huffman_.emplace();
    ++counters_.huffman_builds;
  }
  return *static_huffman_;
}

const ReciprocalTable& CodecContext::reciprocal_for(const QuantTable& table, int slot) {
  if (slot < 0 || slot >= static_cast<int>(recips_.size()))
    throw std::invalid_argument("CodecContext::reciprocal_for: bad slot");
  RecipSlot& s = recips_[static_cast<std::size_t>(slot)];
  if (!s.valid || !(s.table == table)) {
    s.table = table;
    s.recip = ReciprocalTable(table);
    s.valid = true;
    ++counters_.reciprocal_builds;
  }
  return s.recip;
}

const HuffmanDecoder& CodecContext::decoder_for(const HuffmanSpec& spec) {
  spec.validate();
  return decoder_for(spec.counts, spec.symbols.data());
}

const HuffmanDecoder& CodecContext::decoder_for(const std::array<std::uint8_t, 17>& counts,
                                                const std::uint8_t* symbols) {
  const int lut_bits = entropy_lut_bits();
  std::size_t n = 0;
  for (int l = 1; l <= 16; ++l) n += counts[static_cast<std::size_t>(l)];
  DecoderSlot* victim = &decoders_[0];
  for (DecoderSlot& slot : decoders_) {
    // Exact contents compare: a hit can never hand back another table.
    if (slot.decoder && slot.lut_bits == lut_bits && slot.counts == counts &&
        std::equal(symbols, symbols + n, slot.symbols.begin())) {
      slot.last_use = ++decoder_clock_;
      return *slot.decoder;
    }
    if (slot.last_use < victim->last_use) victim = &slot;  // empty slots read 0
  }
  victim->decoder.reset();
  victim->last_use = 0;
  victim->decoder.emplace(counts, symbols);  // validates; throws with the slot empty
  victim->lut_bits = lut_bits;
  victim->counts = counts;
  std::copy(symbols, symbols + n, victim->symbols.begin());
  victim->last_use = ++decoder_clock_;
  ++counters_.huffman_decoder_builds;
  return *victim->decoder;
}

CodecContext::QualityTables CodecContext::quality_tables(int quality) {
  // Canonicalize exactly like QuantTable::scaled so every out-of-range
  // quality shares the clamped entry (and can never collide with the
  // "empty" sentinel of -1).
  quality = std::clamp(quality, 1, 100);
  if (cached_quality_ != quality) {
    quality_luma_ = QuantTable::annex_k_luma().scaled(quality);
    quality_chroma_ = QuantTable::annex_k_chroma().scaled(quality);
    cached_quality_ = quality;
    ++counters_.quality_table_builds;
  }
  return {quality_luma_, quality_chroma_};
}

CodecContext& thread_codec_context() {
  thread_local CodecContext ctx;
  return ctx;
}

}  // namespace dnj::jpeg::pipeline
