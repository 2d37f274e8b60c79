// Internal: per-level kernel tables consumed by the dispatch core.
//
// Each TU fills a KernelTable with the kernels it implements and leaves
// the rest null; dispatch.cpp merges tables so every slot falls back to
// the widest narrower implementation. A TU compiled without its ISA
// support (non-x86 build, DNJ_AVX2=OFF) returns nullptr instead.
#pragma once

#include "simd/dispatch.hpp"

namespace dnj::simd {

/// Complete scalar table (never null; the fallback floor).
const KernelTable* scalar_kernels();

/// SSE2 table, or nullptr when the build has no SSE2 target support.
const KernelTable* sse2_kernels();

/// AVX2 table, or nullptr when the AVX2 TU was not compiled (DNJ_AVX2=OFF
/// or no compiler support).
const KernelTable* avx2_kernels();

/// The PCLMULQDQ CRC-32 fold (SSE2 TU, function-level target attribute),
/// or nullptr when the compiler cannot emit it. It sits in no level's
/// table: the dispatcher installs it at SSE2 and above only when
/// pclmul_supported().
decltype(KernelTable::crc32) crc32_pclmul_kernel();

}  // namespace dnj::simd
