(** Generic ordered, labelled rose trees.

    Semantic-bearing trees ([T_src], [T_sem], [T_ir], §III-A of the paper)
    are all instances of this one structure with different label
    conventions. Children are ordered, as required by tree edit
    distance. *)

type 'a t = Node of 'a * 'a t list
(** A node carrying a label and an ordered list of children. *)

val leaf : 'a -> 'a t
(** [leaf x] is a node with no children. *)

val node : 'a -> 'a t list -> 'a t
(** [node x cs] builds an interior node. *)

val label : 'a t -> 'a
(** [label t] is the root label. *)

val children : 'a t -> 'a t list
(** [children t] are the root's ordered children. *)

val size : 'a t -> int
(** [size t] is the total number of nodes; this is the |T| of Eq. (7),
    used for the maximum-divergence bound [dmax]. *)

val shallow_hash : 'a t -> int
(** [shallow_hash t] hashes a bounded prefix of [t]'s contents in
    constant time. It depends only on contents (never on addresses), so
    it stays valid while the collector moves [t]: the hash for weak
    tables that memoise per physical tree, with [( == )] as equality. *)

val depth : 'a t -> int
(** [depth t] is the number of nodes on the longest root-to-leaf path
    (a leaf has depth 1). *)

val map : ('a -> 'b) -> 'a t -> 'b t
(** [map f t] relabels every node. *)

val fold : ('a -> 'b list -> 'b) -> 'a t -> 'b
(** [fold f t] bottom-up catamorphism: children results are passed in
    order. *)

val preorder : 'a t -> 'a list
(** [preorder t] lists labels root-first. *)

val postorder : 'a t -> 'a list
(** [postorder t] lists labels children-first (the order Zhang–Shasha
    numbers nodes in). *)

val leaves : 'a t -> 'a list
(** [leaves t] lists the labels of leaf nodes, left to right. *)

val count : ('a -> bool) -> 'a t -> int
(** [count p t] counts nodes whose label satisfies [p]. *)

val exists : ('a -> bool) -> 'a t -> bool
(** [exists p t] tests whether any node label satisfies [p]. *)

val filter_prune : ('a -> bool) -> 'a t -> 'a t option
(** [filter_prune keep t] drops every maximal subtree whose root label
    fails [keep]; returns [None] when the root itself is dropped. This is
    the coverage-mask pruning of §III-A (unexecuted regions are removed
    wholesale). *)

val filter_splice : ('a -> bool) -> 'a t -> 'a t option
(** [filter_splice keep t] removes individual nodes failing [keep] but
    splices their children into the parent (like a TED delete). Used to
    strip non-semantic nodes (implicit casts, punctuation) while keeping
    their subtrees. [None] when nothing remains; if the root is removed but
    several children survive, a fresh root is required, so the first
    survivor adopts the rest — callers should keep roots. *)

val equal : ('a -> 'a -> bool) -> 'a t -> 'a t -> bool
(** [equal eq a b] is structural equality with label equality [eq]. *)

val hash : ('a -> int) -> 'a t -> int
(** [hash h t] is a structural hash built from [h] on labels; equal trees
    hash equally. *)

val pp : (Format.formatter -> 'a -> unit) -> Format.formatter -> 'a t -> unit
(** [pp pp_label fmt t] renders an indented outline, one node per line. *)

val flatten_forest : 'a -> 'a t list -> 'a t
(** [flatten_forest root ts] wraps a forest under a synthetic root label,
    turning per-unit trees into the single-codebase tree of §III-C. *)
