(** The Codebase DB — SilverVale's portable analysis artifact (§IV).

    The index step turns a compiled codebase into "a portable set of
    semantic-bearing trees and metadata files all stored in a Zstd
    compressed MessagePack format". This module is that store: trees plus
    per-unit metadata, serialised to MessagePack ({!Sv_msgpack}) and
    compressed with the LZ77 codec ({!Sv_svz}, the Zstd stand-in). *)

type unit_record = {
  ur_file : string;                     (** unit main file *)
  ur_deps : string list;                (** headers spliced into the unit *)
  ur_sloc : int;
  ur_lloc : int;
  ur_lines : string list;               (** normalised source lines *)
  ur_trees : (string * Sv_tree.Label.tree) list;
      (** named trees: ["t_src"], ["t_src_pp"], ["t_sem"], ["t_sem_i"],
          ["t_ir"], and their ["+cov"] variants when coverage ran *)
}

type t = {
  db_app : string;    (** application name, e.g. ["tealeaf"] *)
  db_model : string;  (** programming model id *)
  db_units : unit_record list;
}

val save : t -> string
(** [save db] is the compressed binary artifact. *)

val load : string -> (t, string) Result.t
(** [load bytes] decodes an artifact produced by {!save}; reports
    corruption and schema mismatches as [Error]. *)

val tree_to_msgpack : Sv_tree.Label.tree -> Sv_msgpack.Msgpack.t
(** Tree codec, exposed for tests: node → [\[kind; text; loc; children\]]. *)

val tree_of_msgpack : Sv_msgpack.Msgpack.t -> (Sv_tree.Label.tree, string) Result.t
(** Inverse of {!tree_to_msgpack}. *)

val stats : t -> string
(** One-line summary: unit count, total tree nodes, compressed and
    uncompressed artifact sizes and ratio. *)

(** Persistent memo table for pairwise TED results.

    Keys are the two trees' structural digests (MD5 of the msgpack tree
    encoding with locations stripped, matching {!Sv_tree.Label.equal}'s
    blindness to locations), ordered so the symmetric distance is stored
    once. Digests are computed once per physical tree. The on-disk
    format is an SVZ-compressed msgpack map
    [{schema; ted: \[\[digest₁; digest₂; d\]; ...\]}] with entries
    sorted by key, so identical contents serialise to identical bytes. *)
module Ted_cache : sig
  type cache

  val create : unit -> cache
  (** Empty cache with zeroed hit/miss counters. *)

  val digest : Sv_tree.Label.tree -> string
  (** Structural digest of a tree (16 raw MD5 bytes). Location-blind:
      trees equal under {!Sv_tree.Label.equal} share a digest. Computed
      once per physical tree and then memoised in a weak (ephemeron)
      table, so repeated lookups with the same trees cost a probe, not a
      serialisation; an entry dies with its tree. *)

  val find : cache -> string -> string -> int option
  (** [find c da db] looks up the distance for a digest pair, in either
      order, bumping the hit/miss counters. *)

  val mem : cache -> string -> string -> bool
  (** [mem c da db] tells whether {!find} would hit, without moving the
      hit/miss counters — for planning work ahead of the lookups. *)

  val add : cache -> string -> string -> int -> unit
  (** Record a computed distance. New entries are also appended to the
      additions journal (see {!drain_additions}). *)

  val merge : cache -> (string * string * int) list -> unit
  (** Fold entries from another process into the table {e without}
      journalling them — how the parent absorbs worker additions.
      Defensive against faulted or degraded pool runs: entries that are
      not (16-byte digest, 16-byte digest, non-negative distance) are
      dropped, and an existing key is never overwritten, so merging the
      same batch twice — or a batch recomputed in-process after worker
      strikes — cannot tear or duplicate an entry. *)

  val drain_additions : cache -> (string * string * int) list
  (** Entries added since the last drain, oldest first, clearing the
      journal — what a forked worker ships back with its results. *)

  val size : cache -> int
  val hits : cache -> int
  val misses : cache -> int

  val save : cache -> string
  (** Compressed artifact bytes (deterministic for given contents). *)

  val load : string -> (cache, string) Result.t
  (** Decode an artifact produced by {!save}. *)

  val save_file : string -> cache -> unit
  (** [save_file path c] writes {!save}'s bytes to [path], unless [c]
      was loaded from or last saved to [path], nothing has been added
      since, and the file still has the size and modification time it
      had then: such a save would rewrite the same bytes, so a warm
      rerun leaves the file untouched. *)

  val load_file : string -> cache
  (** [load_file path] reads a cache file; a missing or corrupt file
      yields an empty cache (a cold start, never an error), which the
      next {!save_file} writes out whole. *)

  val stats : cache -> string
  (** One-line entry/hit/miss summary. *)
end
