/**
 * @file
 * Checked-in CRC32 digests pinned by tests/test_golden.cpp, one line
 * per (digest, backend). The table holds the numerics of the default
 * configuration; any change to it is a deliberate re-pin, made by
 * pasting the line test_golden prints on a mismatch.
 */
#ifndef SNIP_TESTS_GOLDEN_DIGESTS_H
#define SNIP_TESTS_GOLDEN_DIGESTS_H

#include <cstdint>

namespace snip {

struct GoldenDigest
{
    const char *name;
    const char *backend;
    uint32_t crc;
};

inline constexpr GoldenDigest kGoldenDigests[] = {
    {"fig8_short.loss", "avx2", 0x46bbca9fu},
    {"fig8_short.loss", "scalar", 0xcb674478u},
    {"fig8_short.params", "avx2", 0x9c1d86e0u},
    {"fig8_short.params", "scalar", 0xd4f2af11u},
    {"quant_regions", "avx2", 0x5ccae5e5u},
    {"quant_regions", "scalar", 0x5ccae5e5u},
    {"quickstart.loss", "avx2", 0x5844418fu},
    {"quickstart.loss", "scalar", 0x486e198au},
    {"quickstart.params", "avx2", 0xda4dcb25u},
    {"quickstart.params", "scalar", 0x067f6799u},
    {"serve_fp32kv.logits", "avx2", 0xac9be365u},
    {"serve_fp32kv.logits", "scalar", 0x1321488bu},
    {"serve_fp32kv.tokens", "avx2", 0x8fc5c398u},
    {"serve_fp32kv.tokens", "scalar", 0x8fc5c398u},
    {"serve_fp8kv.logits", "avx2", 0x319039ceu},
    {"serve_fp8kv.logits", "scalar", 0x739b9585u},
    {"serve_fp8kv.tokens", "avx2", 0x8fc5c398u},
    {"serve_fp8kv.tokens", "scalar", 0x8fc5c398u},
    {"train_tiny.loss", "avx2", 0xd4a56368u},
    {"train_tiny.loss", "scalar", 0x27d2f9ceu},
    {"train_tiny.params", "avx2", 0x9a6b6ea0u},
    {"train_tiny.params", "scalar", 0xa7070943u},
    {"train_wide.loss", "avx2", 0x96a86a4au},
    {"train_wide.loss", "scalar", 0x3691db57u},
    {"train_wide.params", "avx2", 0xfe247c7fu},
    {"train_wide.params", "scalar", 0x71565f9bu},
};

} // namespace snip

#endif // SNIP_TESTS_GOLDEN_DIGESTS_H
