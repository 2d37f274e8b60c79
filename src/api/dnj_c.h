/* dnj_c.h — C ABI of the DeepN-JPEG library.
 *
 * The stable FFI surface for edge-device and foreign-language callers:
 * opaque handles, out-params, typed dnj_status_t returns. No exception
 * ever crosses this boundary (every entry point catches internally), no
 * C++ type appears here, and the header compiles as strict C11 or C++.
 *
 * Versioning: DNJ_ABI_VERSION_* name the ABI this header describes;
 * dnj_abi_version() reports the ABI of the linked library. Compare the
 * two at startup to detect a skew. The policy (README "Public API"):
 * minor bumps are additive (new functions only); any change to an
 * existing signature, struct layout, enum value, or ownership rule bumps
 * the major version.
 *
 * Ownership: output buffers (dnj_buffer_t, dnj_image_t) are allocated by
 * the library and released by the matching *_free function — never by the
 * caller's allocator. Input pointers are borrowed for the duration of the
 * call only. Handles are released with their *_free function; all *_free
 * functions accept NULL.
 *
 * Thread-safety: a session may be shared across threads (codec state is
 * per-thread inside the library), except that dnj_last_error() reflects
 * the most recent failing call on that session from ANY thread — callers
 * that need a precise message per call should serialize, or rely on the
 * status code alone. A designer must be confined to one thread.
 *
 * Minimal round trip:
 *
 *   dnj_session_t* s = dnj_session_new();
 *   dnj_buffer_t jpeg = {0};
 *   if (dnj_encode(s, pixels, w, h, 1, NULL, &jpeg) == DNJ_OK) {
 *     dnj_image_t back = {0};
 *     dnj_decode(s, jpeg.data, jpeg.size, &back);
 *     dnj_image_free(&back);
 *     dnj_buffer_free(&jpeg);
 *   }
 *   dnj_session_free(s);
 */
#ifndef DNJ_C_H_
#define DNJ_C_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* ------------------------------------------------------------- version */

#define DNJ_ABI_VERSION_MAJOR 1
#define DNJ_ABI_VERSION_MINOR 4
#define DNJ_ABI_VERSION ((uint32_t)((DNJ_ABI_VERSION_MAJOR << 16) | DNJ_ABI_VERSION_MINOR))

/* ABI version of the linked library: (major << 16) | minor. */
uint32_t dnj_abi_version(void);

/* -------------------------------------------------------------- status */

/* Mirrors dnj::api::StatusCode value-for-value (pinned by static_asserts
 * in the implementation). */
typedef enum dnj_status_t {
  DNJ_OK = 0,
  DNJ_INVALID_ARGUMENT = 1,
  DNJ_DECODE_ERROR = 2,
  DNJ_REJECTED = 3,
  DNJ_SHUTDOWN = 4,
  DNJ_INTERNAL = 5
} dnj_status_t;

/* Stable lowercase identifier ("ok", "invalid_argument", ...). Never
 * NULL, even for out-of-range values. */
const char* dnj_status_name(dnj_status_t status);

/* ------------------------------------------------------------- buffers */

/* A library-owned byte buffer handed to the caller. Zero-initialize, pass
 * to an API call, release with dnj_buffer_free. */
typedef struct dnj_buffer_t {
  uint8_t* data;
  size_t size;
} dnj_buffer_t;

void dnj_buffer_free(dnj_buffer_t* buffer);

/* A library-owned decoded image: interleaved 8-bit pixels, channels 1
 * (gray) or 3 (RGB). Release with dnj_image_free. */
typedef struct dnj_image_t {
  uint8_t* pixels; /* width * height * channels bytes */
  int32_t width;
  int32_t height;
  int32_t channels;
} dnj_image_t;

void dnj_image_free(dnj_image_t* image);

/* ------------------------------------------------------------- options */

/* Opaque encoder-options builder. NULL is accepted everywhere a
 * dnj_options_t* is taken and means "defaults" (quality 75, Annex K
 * tables, 4:2:0 subsampling). */
typedef struct dnj_options_t dnj_options_t;

dnj_options_t* dnj_options_new(void);
void dnj_options_free(dnj_options_t* options);

/* Setters store the value; range validation happens at the call that
 * uses the options (so the error is attributable to the operation). */
dnj_status_t dnj_options_set_quality(dnj_options_t* options, int32_t quality);
/* 64 natural-order (row-major) steps per table; steps clamp into [1, 65535]. */
dnj_status_t dnj_options_set_tables(dnj_options_t* options, const uint16_t luma[64],
                                    const uint16_t chroma[64]);
dnj_status_t dnj_options_set_chroma_420(dnj_options_t* options, int32_t on);
dnj_status_t dnj_options_set_optimize_huffman(dnj_options_t* options, int32_t on);
dnj_status_t dnj_options_set_restart_interval(dnj_options_t* options, int32_t mcus);
dnj_status_t dnj_options_set_comment(dnj_options_t* options, const char* text);

/* FNV-1a 64 of the canonical options serialization — equal digests mean
 * the same encode computation. Compare digests only for equality: the
 * value may change between library versions. */
uint64_t dnj_options_digest(const dnj_options_t* options);

/* ------------------------------------------------------------- session */

typedef struct dnj_session_t dnj_session_t;

dnj_session_t* dnj_session_new(void);
void dnj_session_free(dnj_session_t* session);

/* Message of the most recent failing call on this session ("" if none).
 * The pointer stays valid until the next failing call on the session. */
const char* dnj_last_error(const dnj_session_t* session);

/* Encodes interleaved 8-bit pixels (read in place, zero-copy) to a
 * complete JFIF stream in *out. */
dnj_status_t dnj_encode(dnj_session_t* session, const uint8_t* pixels, int32_t width,
                        int32_t height, int32_t channels, const dnj_options_t* options,
                        dnj_buffer_t* out);

/* Decodes a JFIF stream into *out. */
dnj_status_t dnj_decode(dnj_session_t* session, const uint8_t* bytes, size_t size,
                        dnj_image_t* out);

/* Decode + re-encode under `options` (byte-identical to decode followed
 * by encode of the decoded pixels). */
dnj_status_t dnj_transcode(dnj_session_t* session, const uint8_t* bytes, size_t size,
                           const dnj_options_t* options, dnj_buffer_t* out);

/* ------------------------------------------------------------ registry */

/* Opaque multi-tenant table registry: names tenants and maps each to an
 * immutable encoder configuration (base quantization tables + options +
 * an optional byte quota, recorded but not enforced). Share one registry
 * across servers by passing it to dnj_server_new_with_registry.
 * Thread-safe; updates are versioned, and requests in flight keep the
 * tenant snapshot they resolved at submission. Added in ABI 1.2. */
typedef struct dnj_registry_t dnj_registry_t;

dnj_registry_t* dnj_registry_new(void);
void dnj_registry_free(dnj_registry_t* registry);

/* Message of the most recent failing call on this registry ("" if none). */
const char* dnj_registry_last_error(const dnj_registry_t* registry);

/* Registers (or replaces) tenant `name` with `options` as its base
 * configuration (NULL = defaults; a registration without custom tables is
 * materialized with the Annex K pair). `quota_bytes` is recorded and
 * echoed by dnj_registry_get; nothing enforces it. *out_version
 * (optional) receives the published registry version. */
dnj_status_t dnj_registry_put(dnj_registry_t* registry, const char* name,
                              const dnj_options_t* options, size_t quota_bytes,
                              uint64_t* out_version);

/* Unregisters `name` (DNJ_INVALID_ARGUMENT when unknown). */
dnj_status_t dnj_registry_remove(dnj_registry_t* registry, const char* name);

/* Looks `name` up; *out_version / *out_quota_bytes (each optional)
 * receive the tenant's published version and quota. */
dnj_status_t dnj_registry_get(dnj_registry_t* registry, const char* name,
                              uint64_t* out_version, size_t* out_quota_bytes);

/* Number of registered tenants (0 for NULL). */
size_t dnj_registry_count(const dnj_registry_t* registry);

/* Writes into `out_options` the exact encoder options a deepn encode of
 * (name, quality) runs under: the tenant's configuration with its tables
 * IJG-scaled to `quality` in [1, 100] (50 = base tables verbatim).
 * Encoding with these options reproduces the served payload bit for bit. */
dnj_status_t dnj_registry_encode_options(dnj_registry_t* registry, const char* name,
                                         int32_t quality, dnj_options_t* out_options);

/* -------------------------------------------------------------- server */

/* Opaque network server: an asynchronous transcode service (worker pool,
 * bounded queue) fronted by the TCP protocol in docs/PROTOCOL.md. Added
 * in ABI 1.1. */
typedef struct dnj_server_t dnj_server_t;

/* Creates a stopped server. `workers` <= 0 and `queue_capacity` == 0 pick
 * the library defaults. `reject_when_full` != 0 answers a full queue with
 * a typed DNJ_REJECTED response (recommended for network use — see
 * docs/OPERATIONS.md) instead of applying TCP backpressure. */
dnj_server_t* dnj_server_new(int32_t workers, size_t queue_capacity,
                             int32_t reject_when_full);

/* Like dnj_server_new, but the server resolves tenant-named requests
 * against `registry` (borrowed for construction only: the underlying
 * registry is shared, so the caller may free the handle — or keep it and
 * update tenants live). NULL registry behaves like dnj_server_new. Added
 * in ABI 1.2. */
dnj_server_t* dnj_server_new_with_registry(int32_t workers, size_t queue_capacity,
                                           int32_t reject_when_full,
                                           dnj_registry_t* registry);

void dnj_server_free(dnj_server_t* server);

/* Message of the most recent failing call on this server ("" if none). */
const char* dnj_server_last_error(const dnj_server_t* server);

/* Binds host:port (host NULL = "127.0.0.1", port 0 = ephemeral) and
 * starts serving. *out_port (optional) receives the bound port. */
dnj_status_t dnj_server_listen(dnj_server_t* server, const char* host, uint16_t port,
                               uint16_t* out_port);

/* The bound port while listening, -1 otherwise. */
int32_t dnj_server_port(const dnj_server_t* server);

/* Graceful stop: stop accepting, drain in-flight requests, flush
 * responses, close. Idempotent; implied by dnj_server_free. */
void dnj_server_stop(dnj_server_t* server);

/* Renders the server's unified metrics plane (service + network front
 * end) as Prometheus text exposition into *out (UTF-8, released with
 * dnj_buffer_free). Works whether or not the server is listening — the
 * same document a wire kStats request returns. Added in ABI 1.3. */
dnj_status_t dnj_server_metrics_text(dnj_server_t* server, dnj_buffer_t* out);

/* Dumps the recorded request spans as a JSON document into *out
 * (tools/trace2chrome.py converts it for chrome://tracing). Spans are
 * recorded only while tracing is sampled — set DNJ_TRACE_SAMPLE, see
 * docs/OPERATIONS.md "Observability". Added in ABI 1.3. */
dnj_status_t dnj_server_trace_dump(dnj_server_t* server, dnj_buffer_t* out);

/* ------------------------------------------------------------ designer */

/* Opaque DeepN-JPEG table designer: add a representative image sample,
 * then design. Confine to one thread. */
typedef struct dnj_designer_t dnj_designer_t;

dnj_designer_t* dnj_designer_new(void);
void dnj_designer_free(dnj_designer_t* designer);

/* Adds one image (pixels are copied). `label` is the image's class id
 * (>= 0); pass 0 when unlabeled. */
dnj_status_t dnj_designer_add(dnj_designer_t* designer, const uint8_t* pixels,
                              int32_t width, int32_t height, int32_t channels,
                              int32_t label);

/* Runs the design flow; writes the 64 natural-order steps of the designed
 * quantization table into out_table. */
dnj_status_t dnj_designer_design(dnj_designer_t* designer, uint16_t out_table[64]);

/* Convenience: design and install the result into `options` (designed
 * table on luma and chroma, 4:4:4 subsampling — the paper's deployment
 * configuration). */
dnj_status_t dnj_designer_design_options(dnj_designer_t* designer,
                                         dnj_options_t* options);

/* Message of the most recent failing call on this designer ("" if none).
 * Added in ABI 1.4. */
const char* dnj_designer_last_error(const dnj_designer_t* designer);

/* -------------------------------------------------- design jobs (1.4) */

/* Async, rate-controlled design jobs over the designer's accumulated
 * sample: frequency analysis, simulated-annealing refinement with
 * periodic checkpoints, then a binary search for the quality meeting a
 * mean bytes-per-image target. Jobs run on the designer's private worker
 * thread; submit returns immediately and the designer stays usable
 * (including adding more images for a later job). Job ids are local to
 * the designer handle. Added in ABI 1.4. */

/* Mirrors dnj::api::DesignJobState value-for-value (pinned by
 * static_asserts in the implementation). Terminal states are COMPLETED /
 * FAILED / CANCELLED; PAUSED is resumable via the result checkpoint. */
typedef enum dnj_job_state_t {
  DNJ_JOB_QUEUED = 0,
  DNJ_JOB_RUNNING = 1,
  DNJ_JOB_PAUSED = 2,
  DNJ_JOB_COMPLETED = 3,
  DNJ_JOB_FAILED = 4,
  DNJ_JOB_CANCELLED = 5
} dnj_job_state_t;

/* Stable lowercase identifier ("queued", "running", ...); never NULL. */
const char* dnj_job_state_name(dnj_job_state_t state);

/* Plain value snapshot of a job — no allocation, nothing to free. */
typedef struct dnj_job_status_t {
  uint64_t id;
  int32_t state;          /* dnj_job_state_t */
  double progress;        /* coarse fraction in [0, 1] */
  uint32_t sa_iteration;  /* SA iterations completed */
  uint32_t sa_total;
  double target_bytes;    /* requested mean bytes/image (0 = uncontrolled) */
  double achieved_bytes;  /* measured mean bytes/image at the chosen quality */
  double rate_error;      /* |achieved - target| / target (0 when no target) */
  uint32_t checkpoints;   /* optimizer snapshots taken so far */
  uint32_t rungs;         /* quality-ladder entries registered so far */
} dnj_job_status_t;

/* Submits a design job. `tenant` NULL = "designer" (the name designed
 * tables would be registered under when the designer is wired to a
 * registry). `target_bytes_per_image` 0 disables rate control.
 * `sa_iterations` <= 0 picks the library default (400). `anneal_limit`
 * > 0 parks the job in DNJ_JOB_PAUSED at exactly that SA iteration.
 * `checkpoint`/`checkpoint_size` resume a prior job's state (NULL/0 =
 * fresh run). *out_job_id receives the id. A full job queue returns
 * DNJ_REJECTED. */
dnj_status_t dnj_job_submit(dnj_designer_t* designer, const char* tenant,
                            double target_bytes_per_image, int32_t sa_iterations,
                            int32_t anneal_limit, const uint8_t* checkpoint,
                            size_t checkpoint_size, uint64_t* out_job_id);

/* Snapshot of a job (safe while it runs). Unknown ids return
 * DNJ_INVALID_ARGUMENT. */
dnj_status_t dnj_job_status(dnj_designer_t* designer, uint64_t job_id,
                            dnj_job_status_t* out);

/* Blocks until the job leaves QUEUED/RUNNING, then fills *out (optional). */
dnj_status_t dnj_job_wait(dnj_designer_t* designer, uint64_t job_id,
                          dnj_job_status_t* out);

/* Requests cancellation (idempotent; running jobs stop at the next
 * checkpoint boundary, keeping their latest checkpoint). */
dnj_status_t dnj_job_cancel(dnj_designer_t* designer, uint64_t job_id);

/* Result of a COMPLETED or PAUSED job: the 64 natural-order steps of the
 * annealed table into out_table, the rate-search quality into
 * *out_quality, the achieved mean bytes/image into *out_achieved_bytes,
 * and the resume checkpoint into *out_checkpoint (released with
 * dnj_buffer_free). Every output is optional (NULL = skip). Returns
 * DNJ_REJECTED while the job is still queued/running. */
dnj_status_t dnj_job_result(dnj_designer_t* designer, uint64_t job_id,
                            uint16_t out_table[64], int32_t* out_quality,
                            double* out_achieved_bytes, dnj_buffer_t* out_checkpoint);

#ifdef __cplusplus
} /* extern "C" */
#endif

#endif /* DNJ_C_H_ */
