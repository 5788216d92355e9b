(** Line-coverage data.

    The paper's coverage variant (§IV-D) converts runtime profile data
    into "a line-based mask that can be toggled for any tree structure or
    source file". This is that mask: per-file executed-line sets with hit
    counts, produced by the interpreter (standing in for GCov / Clang
    source-based coverage) and consumed by the metric layer to prune
    never-executed tree regions. *)

type t

val create : unit -> t
(** An empty recording. *)

val hit : t -> file:string -> line:int -> unit
(** [hit t ~file ~line] increments the execution count of a line. *)

type counter
(** One line's execution count inside a recording, resolved once. *)

val counter : t -> file:string -> line:int -> counter
(** [counter t ~file ~line] binds the line's count for repeated hits. It
    records nothing by itself: a line whose counter never fires stays
    absent from {!files}, {!lines_hit} and {!dump}. *)

val incr : counter -> unit
(** [incr c] is [hit] on the counter's line, in O(1) with no lookup. *)

val merge : t -> t -> t
(** [merge a b] sums two recordings (e.g. several benchmark runs). *)

val covered : t -> file:string -> line:int -> bool
(** [covered t ~file ~line] is true when the line executed at least
    once. *)

val count : t -> file:string -> line:int -> int
(** Execution count (0 when never hit). *)

val files : t -> string list
(** Files with at least one hit, sorted. *)

val lines_hit : t -> file:string -> int list
(** Sorted executed lines of one file. *)

val dump : t -> (string * (int * int) list) list
(** Full contents as [(file, (line, count) list)], sorted by file and
    line — the deterministic form the index cache serialises. *)

val restore : (string * (int * int) list) list -> t
(** Inverse of {!dump}: rebuild a recording. [restore (dump t)] observes
    identically to [t]; non-positive counts are dropped. *)

val keep_loc : t -> Loc.t -> bool
(** [keep_loc t loc] is the tree-mask predicate: true when [loc] is a
    synthesised location ({!Loc.none} — always kept) or when at least one
    line of the span executed. Everything else — including whole files
    that were compiled in but never ran, the way GCov reports
    zero-count inline header code — masks away. Container nodes whose own
    span never "executes" (function headers, braces) are protected one
    level up, by {!Sv_metrics.Divergence.mask_tree}'s keep-ancestors
    rule. *)
