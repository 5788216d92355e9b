(** The files behind the persistent caches ({!Codebase_db.Ted_cache},
    {!Index_cache}, {!Metric_cache}): whole-file reads and writes, and
    the stamp that lets a cache skip a save that would rewrite the file
    with the bytes it already holds. *)

type stamp
(** A file as a cache last read or wrote it: its path, size and
    modification time. *)

val read : string -> (string * stamp) option
(** [read path] is the file's bytes and stamp, or [None] when no file
    exists at [path]. *)

val write : string -> string -> stamp
(** [write path bytes] replaces the file's contents and returns its new
    stamp. *)

val unchanged : stamp option -> string -> bool
(** [unchanged s path] holds when [s] is a stamp of [path] and the file
    there still has the stamped size and modification time. A cache
    keeps [Some] stamp while nothing has been added to it since it read
    or wrote the file, so [unchanged] then means a save has nothing to
    write. A deleted, truncated or rewritten file is not unchanged. *)
