// Checkpoint manifests (DESIGN.md §5.12): the storage engine's snapshot
// format, "osprey-db-manifest-v1".
//
// A full db/dump snapshot re-serializes every row at every checkpoint —
// O(dataset). With the LSM engine most rows already sit in immutable,
// CRC-protected runs, so the manifest only records *references*: per table
// the schema, the run metadata (segment, seq/level, block index, bloom),
// the small memtable image, the spilled live-id set, and the index entries
// of spilled rows. Checkpoint cost becomes O(memtable + runs), and recovery
// re-attaches runs without reading them.
//
// The document rides the existing checkpoint plane unchanged: WalManager
// frames and CRCs it exactly like a dump snapshot, and recovery dispatches
// on the "format" field — old dump checkpoints stay restorable forever.
//
//   { "format": "osprey-db-manifest-v1",
//     "tables": { <name>: {
//         "columns": [...], "indexes": [...],          // dump encoding
//         "next_row_id": n, "next_run_seq": n,
//         "mem_row_ids": [id...], "mem_rows": [[cell...]...],
//         "spilled_ids": [id...],
//         "spilled_index": { <index spec>: [[key, id]...] },  // key: the
//                            // cell, or for a composite index [cell...]
//         "runs": [<run_meta_to_json>...] } } }
//
// Build and restore are StorageEngine methods (engine.h) — they walk engine
// internals; this header documents the format and the free-function probe
// the recovery pre-pass uses.
#pragma once

#include <set>
#include <string>

#include "osprey/json/json.h"

namespace osprey::storage {

/// The manifest format tag ("osprey-db-manifest-v1").
extern const char* const kManifestFormat;

/// Is `snapshot` a storage-engine manifest (vs a plain dump snapshot)?
bool is_manifest(const json::Value& snapshot);

/// Every run segment a manifest references, across all tables — the set the
/// recovery orphan-GC pre-pass keeps.
std::set<std::string> manifest_run_segments(const json::Value& manifest);

}  // namespace osprey::storage
