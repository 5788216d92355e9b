(** Persistent, digest-keyed cache of VP-tree metric indexes.

    Phase 2 of the metric layer: a built {!Sv_metric.Vptree} is a pure
    function of (corpus, metric, variant), so it is persisted exactly
    like {!Index_cache} payloads — msgpack inside svz, 16-byte digest
    keys, a schema version, sorted byte-identical serialisation — and
    reloaded on the next run or daemon restart, making `sv nearest`
    warm across processes: a cache hit performs {e zero} build
    evaluations and answers queries byte-identically to a cold build.

    What guards the load path: msgpack decoding validates the framing,
    {!Sv_metric.Vptree.of_repr} re-validates every structural invariant
    of each tree, and a final check requires the element ids to be
    exactly 0..n−1 (they index the candidate array positionally). Any
    failure there degrades to a miss — a cold rebuild — never a crash.
    The svz envelope carries no checksum: a flipped bit inside a
    literal run decodes as different data, and a tree that still passes
    the checks above is served. A per-record checksum belongs to the
    single crash-safe persistent store planned in ROADMAP.md ("One
    crash-safe persistent store for all three caches"). Truncated files
    and files that fail to decode fall back to an empty cache
    ({!load_file}). *)

type cache

val metric_schema : int
(** Payload schema version; part of every key. *)

val create : unit -> cache

val key :
  ?version:int -> corpus_digest:string -> metric:string -> variant:string ->
  unit -> string
(** 16-byte digest committing to the corpus (candidate payloads in
    order — ids are positional), the metric and variant names, and the
    schema version, so any change makes stale entries unreachable. *)

val find : cache -> string -> Sv_metric.Vptree.t option
(** Decode-on-demand probe. [Some t] only if the payload passes the full
    validation stack; counts a hit. Any malformed payload counts a miss. *)

val add : cache -> string -> Sv_metric.Vptree.t -> unit
(** Encode and store under [key]. Existing keys are never overwritten
    (re-adding after a concurrent populate is a no-op). *)

val merge : cache -> (string * string) list -> unit
(** Merge raw (key, payload) entries defensively: malformed entries are
    dropped, existing keys never overwritten — merging the same batch
    twice is a no-op. *)

val size : cache -> int
val hits : cache -> int
val misses : cache -> int

val to_msgpack : cache -> Sv_msgpack.Msgpack.t
(** Sorted, deterministic: equal contents serialise byte-identically. *)

val of_msgpack : Sv_msgpack.Msgpack.t -> (cache, string) result
val save : cache -> string
val load : string -> (cache, string) result

val save_file : string -> cache -> unit
(** [save_file path c] writes {!save}'s bytes to [path], unless [c] was
    loaded from or last saved to [path], nothing has been added since,
    and the file still has the size and modification time it had then:
    a warm rerun leaves the file untouched. *)

val load_file : string -> cache
(** Missing or corrupt files yield an empty cache (cold start), which
    the next {!save_file} writes out whole. *)

val stats : cache -> string
