/* C API for the OSPREY task queue.
 *
 * §II-B1e: "There is ... not a single lingua franca that can be assumed for
 * developing the model exploration algorithms ... OSPREY will need to be
 * inclusive and provide multi-language APIs." The paper ships Python and R
 * bindings; in a C++ codebase the equivalent enabler is a stable C ABI —
 * every language with a foreign-function interface (Python ctypes, R .Call,
 * Julia ccall, ...) can drive the EQSQL task API through these functions.
 *
 * Conventions:
 *  - handles are opaque pointers; every *_create has a *_destroy;
 *  - functions return 0 on success or a positive osprey error code
 *    (see osprey_error_name); out-parameters are only written on success;
 *  - strings are NUL-terminated UTF-8; output strings are copied into
 *    caller-provided buffers and truncated results fail with
 *    OSPREY_E_INVALID_ARGUMENT rather than overflow.
 *
 * Versioning (the v2 surface): request structs whose first field is
 * struct_size. Callers osprey_*_init() the struct (which stamps the size
 * they were compiled against), set fields, and pass it in; the library
 * reads min(struct_size, its own sizeof) bytes and defaults the rest.
 * Fields are only ever appended, so binaries compiled against an older
 * header keep working against a newer library and vice versa. The v1
 * entry points remain as thin wrappers; new code should use v2.
 */
#ifndef OSPREY_CAPI_OSPREY_C_H_
#define OSPREY_CAPI_OSPREY_C_H_

#include <stddef.h>
#include <stdint.h>

#ifdef __cplusplus
extern "C" {
#endif

/* Deprecation marker for the superseded v1 entry points. Define
 * OSPREY_ALLOW_DEPRECATED before including this header to silence the
 * warnings (e.g. a migration in progress, or a -Werror build that still
 * exercises the compat surface on purpose). */
#if defined(OSPREY_ALLOW_DEPRECATED)
#define OSPREY_DEPRECATED(msg)
#elif defined(__GNUC__) || defined(__clang__)
#define OSPREY_DEPRECATED(msg) __attribute__((deprecated(msg)))
#elif defined(_MSC_VER)
#define OSPREY_DEPRECATED(msg) __declspec(deprecated(msg))
#else
#define OSPREY_DEPRECATED(msg)
#endif

/* Error codes: mirrors osprey::ErrorCode. */
enum {
  OSPREY_OK = 0,
  OSPREY_E_TIMEOUT = 1,
  OSPREY_E_NOT_FOUND = 2,
  OSPREY_E_CANCELED = 3,
  OSPREY_E_INVALID_ARGUMENT = 4,
  OSPREY_E_PAYLOAD_TOO_LARGE = 5,
  OSPREY_E_UNAVAILABLE = 6,
  OSPREY_E_PERMISSION_DENIED = 7,
  OSPREY_E_CONFLICT = 8,
  OSPREY_E_INTERNAL = 9,
  OSPREY_E_RESOURCE_EXHAUSTED = 10, /* tenant over quota / queue bound */
};

/* Task status values returned by osprey_task_status. */
enum {
  OSPREY_TASK_QUEUED = 0,
  OSPREY_TASK_RUNNING = 1,
  OSPREY_TASK_COMPLETE = 2,
  OSPREY_TASK_CANCELED = 3,
};

/* Wait strategies: mirrors osprey::eqsql::WaitStrategy. */
enum {
  OSPREY_WAIT_AUTO = 0,   /* notify when available, else poll */
  OSPREY_WAIT_NOTIFY = 1, /* commit-driven wakeups, poll fallback */
  OSPREY_WAIT_POLL = 2,   /* pure (delay, timeout) polling (Listing 1) */
};

/* How a blocking call waits: mirrors osprey::eqsql::WaitSpec. Initialize
 * with osprey_wait_spec_init to pick up defaults, then override fields. */
typedef struct osprey_wait_spec {
  int strategy;          /* one of OSPREY_WAIT_* */
  double timeout;        /* overall deadline in seconds */
  double poll_delay;     /* poll cadence / notify fallback slice */
  double poll_backoff;   /* per-empty-probe delay growth (1.0 = fixed) */
  double poll_max_delay; /* cap on grown delays; 0 = uncapped */
} osprey_wait_spec;

/* Fill *spec with the library defaults (AUTO, 2s timeout, 0.5s delay). */
void osprey_wait_spec_init(osprey_wait_spec* spec);

/* Queue depth / task state counts: mirrors osprey::eqsql::QueueStats. */
typedef struct osprey_queue_stats {
  int64_t output_queue; /* queued tasks awaiting a pool */
  int64_t input_queue;  /* completed tasks awaiting pickup */
  int64_t queued;
  int64_t running;
  int64_t complete;
  int64_t canceled;
} osprey_queue_stats;

typedef struct osprey_service osprey_service;
typedef struct osprey_client osprey_client;

/* "TIMEOUT", "NOT_FOUND", ... — the paper's status payload strings. */
const char* osprey_error_name(int code);

/* --- service lifecycle (§IV-C EMEWS service) --------------------------- */

/* Create an EMEWS service with its own task database (wall-clock time). */
osprey_service* osprey_service_create(void);
void osprey_service_destroy(osprey_service* service);

int osprey_service_start(osprey_service* service);
int osprey_service_stop(osprey_service* service);

/* Enable the commit-driven notification plane: blocking waits on clients
 * connected *after* this call wake on submit/report commits instead of
 * polling. Idempotent; call after start, before connecting clients. */
int osprey_service_enable_notifications(osprey_service* service);

/* --- sharding (DESIGN.md §5.11) ----------------------------------------- */

/* How the shard key is derived: mirrors osprey::shard::ShardKeyKind. */
enum {
  OSPREY_SHARD_KEY_WORK_TYPE = 0, /* one pool's traffic hits one shard */
  OSPREY_SHARD_KEY_EXP_ID = 1,    /* one campaign colocates per shard */
};

/* How keys map to shards: mirrors osprey::shard::ShardScheme. */
enum {
  OSPREY_SHARD_HASH = 0,  /* FNV-1a mod shard_count */
  OSPREY_SHARD_RANGE = 1, /* contiguous work-type blocks */
};

/* Partition the service's task database across `shard_count` independent
 * shards (each with its own five-table schema and id sequence). Must be
 * called before osprey_service_start: OSPREY_E_CONFLICT afterwards. Task
 * ids become global (shard index in the high bits); with shard_count = 1
 * the encoding is the identity and every id matches the unsharded service.
 * Existing client calls route transparently: single-key operations go to
 * the owning shard, osprey_stats sums across shards. */
int osprey_service_configure_shards(osprey_service* service,
                                    uint32_t shard_count, int key_kind,
                                    int scheme);

/* The configured shard count (1 when never configured). 0 on NULL. */
uint32_t osprey_shard_count(const osprey_service* service);

/* The shard a (work type, experiment) pair routes to. `exp_id` may be NULL
 * (only consulted under OSPREY_SHARD_KEY_EXP_ID). */
int osprey_shard_of(const osprey_service* service, int eq_type,
                    const char* exp_id, uint32_t* shard_out);

/* The shard encoded in a global task id (0 for unsharded ids);
 * OSPREY_E_INVALID_ARGUMENT if it exceeds the configured shard count. */
int osprey_shard_of_task(const osprey_service* service, int64_t task_id,
                         uint32_t* shard_out);

/* --- LSM storage engine (DESIGN.md §5.12) -------------------------------- */

/* Engine knobs: mirrors osprey::storage::StorageOptions. Initialize with
 * osprey_storage_options_init to pick up defaults, then override fields. */
typedef struct osprey_storage_options {
  uint64_t memtable_bytes;     /* rotate + flush past this many bytes */
  uint64_t block_bytes;        /* encoded run block size (cache unit) */
  uint64_t cache_blocks;       /* decoded-block cache capacity, in blocks */
  uint32_t compact_fanout;     /* runs per level before compaction; 0 = off */
  uint32_t bloom_bits_per_key; /* bloom budget per run entry; 0 = off */
} osprey_storage_options;

/* Fill *options with the library defaults (256 KiB memtable, 16 KiB
 * blocks, 256 cached blocks, fanout 4, 10 bloom bits per key). */
void osprey_storage_options_init(osprey_storage_options* options);

/* Aggregate engine counters: mirrors osprey::storage::StorageStats. */
typedef struct osprey_storage_stats {
  uint64_t memtable_bytes; /* active + immutable, all tables */
  uint64_t memtable_rows;
  uint64_t spilled_rows;   /* live rows resident only in sorted runs */
  uint64_t runs;
  uint64_t run_bytes;
  uint64_t zombie_runs;    /* compacted away, still manifest-pinned */
  uint64_t flushes;
  uint64_t flush_failures;
  uint64_t compactions;
  uint64_t cache_hits;
  uint64_t cache_misses;
  uint64_t read_errors;
} osprey_storage_stats;

/* Back every shard's task database with the LSM storage engine: rows past
 * the memtable budget spill to immutable sorted runs, read back through a
 * bloom-filtered block cache. With a non-NULL `directory` the runs live in
 * real files there (created if missing; one shard-<i> subdirectory per
 * shard when sharded); with NULL they live on an in-process simulated
 * device. `options` may be NULL for the defaults. Call after
 * osprey_service_configure_shards and before osprey_service_start;
 * OSPREY_E_CONFLICT if the service is started or the engine is already
 * enabled. A failure other than OSPREY_E_CONFLICT leaves the service
 * partially configured — destroy it. */
int osprey_service_enable_storage(osprey_service* service,
                                  const char* directory,
                                  const osprey_storage_options* options);

/* Storage counters summed across shards. OSPREY_E_UNAVAILABLE when the
 * engine was never enabled. Deprecated: the storage_* fields of
 * osprey_stats_v2 carry the same counters in one snapshot. */
OSPREY_DEPRECATED("use osprey_stats_v2")
int osprey_storage_stats_snapshot(const osprey_service* service,
                                  osprey_storage_stats* stats_out);

/* --- client connections ------------------------------------------------- */

/* Connect a client API handle to a running service. NULL on failure. */
osprey_client* osprey_client_connect(osprey_service* service);
void osprey_client_destroy(osprey_client* client);

/* --- the EQSQL task API (§V-A, Listing 1) -------------------------------- */

/* Submit a task; on success writes the new task id to *task_id_out.
 * `tag` may be NULL. Deprecated: positional arguments cannot grow —
 * osprey_submit_task_v2 takes a versioned spec struct (and carries the
 * tenant principal). */
OSPREY_DEPRECATED("use osprey_submit_task_v2")
int osprey_submit_task(osprey_client* client, const char* exp_id, int eq_type,
                       const char* payload, int priority, const char* tag,
                       int64_t* task_id_out);

/* Pop one task for execution (worker-pool side), polling every `delay`
 * seconds up to `timeout`. On success writes the task id and copies the
 * payload into payload_buf. Deprecated: use osprey_query_task_v2. */
OSPREY_DEPRECATED("use osprey_query_task_v2")
int osprey_query_task(osprey_client* client, int eq_type,
                      const char* worker_pool, double delay, double timeout,
                      int64_t* task_id_out, char* payload_buf,
                      size_t payload_buf_size);

/* Report a completed task's result payload. */
int osprey_report_task(osprey_client* client, int64_t task_id, int eq_type,
                       const char* result);

/* Retrieve a task's result, polling like osprey_query_task. Deprecated:
 * osprey_query_result_wait takes the unified wait spec. */
OSPREY_DEPRECATED("use osprey_query_result_wait")
int osprey_query_result(osprey_client* client, int64_t task_id, double delay,
                        double timeout, char* result_buf,
                        size_t result_buf_size);

/* --- the unified wait API ------------------------------------------------ */

/* osprey_query_task under an explicit wait spec. `wait` may be NULL for the
 * defaults (AUTO: notify when the service has notifications enabled). */
int osprey_query_task_wait(osprey_client* client, int eq_type,
                           const char* worker_pool,
                           const osprey_wait_spec* wait, int64_t* task_id_out,
                           char* payload_buf, size_t payload_buf_size);

/* osprey_query_result under an explicit wait spec. `wait` may be NULL. */
int osprey_query_result_wait(osprey_client* client, int64_t task_id,
                             const osprey_wait_spec* wait, char* result_buf,
                             size_t result_buf_size);

/* Non-blocking result peek: copies the result if the task is complete
 * (without consuming the input-queue entry), OSPREY_E_NOT_FOUND while it is
 * not, OSPREY_E_CANCELED for canceled tasks. */
int osprey_peek_result(osprey_client* client, int64_t task_id,
                       char* result_buf, size_t result_buf_size);

/* Queue depth and task state counts in one snapshot (summed across shards
 * when the service is sharded). Deprecated: osprey_stats_v2 unifies queue,
 * shard, and storage stats behind one versioned struct. */
OSPREY_DEPRECATED("use osprey_stats_v2")
int osprey_stats(osprey_client* client, osprey_queue_stats* stats_out);

/* One shard's queue stats (shard 0 is the whole service when unsharded).
 * Deprecated: osprey_stats_v2 with shard >= 0. */
OSPREY_DEPRECATED("use osprey_stats_v2")
int osprey_shard_stats(osprey_client* client, uint32_t shard,
                       osprey_queue_stats* stats_out);

/* Current status; on success writes one of OSPREY_TASK_*. */
int osprey_task_status(osprey_client* client, int64_t task_id,
                       int* status_out);

/* Batch cancel; on success writes how many tasks were newly canceled. */
int osprey_cancel_tasks(osprey_client* client, const int64_t* task_ids,
                        size_t count, size_t* canceled_out);

/* Batch reprioritization (§V-B update_priority). `priorities` has either
 * `count` entries (element-wise) or 1 entry (broadcast, pass
 * priorities_count = 1). */
int osprey_update_priorities(osprey_client* client, const int64_t* task_ids,
                             size_t count, const int* priorities,
                             size_t priorities_count, size_t* updated_out);

/* Number of queued tasks of a work type. */
int osprey_queued_count(osprey_client* client, int eq_type,
                        int64_t* count_out);

/* ======================================================================== *
 * The v2 surface: versioned, size-prefixed request structs.
 * ======================================================================== */

/* --- v2 task submission -------------------------------------------------- */

/* What to submit: identity (tenant), work, and placement in one struct.
 * Initialize with osprey_task_spec_init, then set fields. */
typedef struct osprey_task_spec_t {
  size_t struct_size;  /* stamped by osprey_task_spec_init */
  const char* exp_id;  /* experiment id; required */
  const char* tenant;  /* tenant principal; NULL or "" = untenanted */
  int32_t eq_type;     /* work type */
  int32_t priority;
  const char* payload; /* required */
  const char* tag;     /* optional metadata tag; NULL = untagged */
} osprey_task_spec_t;

/* Defaults: empty tenant, type 0, priority 0, no tag. */
void osprey_task_spec_init(osprey_task_spec_t* spec);

/* Submit per the spec. With tenancy enabled the submit passes admission
 * control first: OSPREY_E_PERMISSION_DENIED for an unregistered tenant,
 * OSPREY_E_RESOURCE_EXHAUSTED when the tenant is over its submit quota or
 * queue-depth bound — rejected at the front door, nothing enqueued. */
int osprey_submit_task_v2(osprey_client* client,
                          const osprey_task_spec_t* spec,
                          int64_t* task_id_out);

/* --- v2 task claim ------------------------------------------------------- */

/* How a worker pool claims: work type, pool identity, and wait policy.
 * Initialize with osprey_claim_spec_init, then set fields. */
typedef struct osprey_claim_spec_t {
  size_t struct_size;      /* stamped by osprey_claim_spec_init */
  int32_t eq_type;         /* work type to claim */
  const char* worker_pool; /* NULL = "default" */
  osprey_wait_spec wait;   /* how to block (AUTO/NOTIFY/POLL) */
} osprey_claim_spec_t;

/* Defaults: type 0, pool "default", osprey_wait_spec_init wait. */
void osprey_claim_spec_init(osprey_claim_spec_t* spec);

/* Claim one task per the spec. With tenancy enabled on the service, claims
 * draw across backlogged tenants weighted-fair (stride scheduling) instead
 * of strictly by priority. A payload too large for payload_buf fails with
 * OSPREY_E_INVALID_ARGUMENT and puts the task back in its queue. */
int osprey_query_task_v2(osprey_client* client,
                         const osprey_claim_spec_t* spec,
                         int64_t* task_id_out, char* payload_buf,
                         size_t payload_buf_size);

/* --- v2 unified stats ---------------------------------------------------- */

/* One snapshot unifying osprey_stats, osprey_shard_stats, and
 * osprey_storage_stats_snapshot. storage_* fields are zero (and
 * storage_enabled 0) when the LSM engine is off. */
typedef struct osprey_stats_v2_t {
  size_t struct_size; /* stamped by osprey_stats_v2_init */
  /* queue depths and task-state counts */
  int64_t output_queue;
  int64_t input_queue;
  int64_t queued;
  int64_t running;
  int64_t complete;
  int64_t canceled;
  /* storage engine counters */
  int32_t storage_enabled; /* 0 or 1 */
  uint64_t storage_memtable_bytes;
  uint64_t storage_memtable_rows;
  uint64_t storage_spilled_rows;
  uint64_t storage_runs;
  uint64_t storage_run_bytes;
  uint64_t storage_zombie_runs;
  uint64_t storage_flushes;
  uint64_t storage_flush_failures;
  uint64_t storage_compactions;
  uint64_t storage_cache_hits;
  uint64_t storage_cache_misses;
  uint64_t storage_read_errors;
} osprey_stats_v2_t;

void osprey_stats_v2_init(osprey_stats_v2_t* stats);

/* Fill *stats_out (already _init'ed by the caller — its struct_size bounds
 * what the library writes). shard = -1 sums across every shard; shard >= 0
 * reports that shard only (OSPREY_E_INVALID_ARGUMENT past the count). */
int osprey_stats_v2(osprey_client* client, int32_t shard,
                    osprey_stats_v2_t* stats_out);

/* --- multi-tenancy (ROADMAP item 4) -------------------------------------- */

/* Unlimited sentinel for quota fields (mirrors osprey::tenant::kUnlimited). */
#define OSPREY_TENANT_UNLIMITED UINT64_MAX

/* Per-tenant admission and scheduling policy. Initialize with
 * osprey_tenant_config_init, then override fields. */
typedef struct osprey_tenant_config_t {
  size_t struct_size;       /* stamped by osprey_tenant_config_init */
  uint64_t submit_quota;    /* max in-flight (queued+running); 0 = none */
  uint64_t max_queue_depth; /* max queued; 0 admits nothing */
  double weight;            /* weighted-fair claim share; must be > 0 */
} osprey_tenant_config_t;

/* Defaults: unlimited quotas, weight 1.0. */
void osprey_tenant_config_init(osprey_tenant_config_t* config);

/* Turn on the multi-tenant front door (one registry per shard — quotas
 * account per shard, matching the share-nothing design). Call after
 * osprey_service_start and before connecting clients: handles connected
 * earlier bypass admission. Idempotent. */
int osprey_service_enable_tenants(osprey_service* service);

/* Register a tenant principal on every shard. `config` may be NULL for the
 * defaults. OSPREY_E_CONFLICT if already registered, OSPREY_E_UNAVAILABLE
 * until osprey_service_enable_tenants. */
int osprey_tenant_register(osprey_service* service, const char* tenant,
                           const osprey_tenant_config_t* config);

/* Replace a registered tenant's policy on every shard. Shrinking a quota
 * below the current depth is allowed: live tasks are untouched and new
 * submits are refused until the backlog drains under the new bound. */
int osprey_tenant_set_config(osprey_service* service, const char* tenant,
                             const osprey_tenant_config_t* config);

/* One tenant's accounting row (per-tenant osprey_stats_v2 companion). */
typedef struct osprey_tenant_stats_row_t {
  size_t struct_size; /* caller-stamped; doubles as the row stride */
  char tenant[64];    /* tenant id ("" = untenanted traffic), truncated */
  uint64_t submit_quota;
  uint64_t max_queue_depth;
  double weight;
  int64_t queued;
  int64_t running;
  uint64_t admitted;
  uint64_t rejected;
  uint64_t claimed;
  uint64_t completed;
  double cost_task_seconds; /* accumulated task runtime (cost unit) */
} osprey_tenant_stats_row_t;

/* Per-tenant rows, merged across shards, sorted by tenant id. The caller
 * sets rows[0].struct_size = sizeof(osprey_tenant_stats_row_t) (their
 * compiled size); the library uses it as the stride and writes
 * min(stride, its own sizeof) bytes per row. Writes at most max_rows rows
 * and always reports the total available in *count_out, so a short buffer
 * is detectable (truncation is not an error). OSPREY_E_UNAVAILABLE until
 * tenancy is enabled. */
int osprey_tenant_stats_v2(osprey_client* client,
                           osprey_tenant_stats_row_t* rows, size_t max_rows,
                           size_t* count_out);

#ifdef __cplusplus
}
#endif

#endif /* OSPREY_CAPI_OSPREY_C_H_ */
