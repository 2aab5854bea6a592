(** The complete subsumption-checking pipeline (Algorithm 4).

    Given a new subscription [s] and the existing set [S], the engine
    runs, in order:

    + intersection pruning — drop candidates disjoint from [s]
      (an empty remainder is a definite NO);
    + conflict-table construction on the pruned set — O(m·k);
    + fast deterministic decisions — Corollary 1 (pairwise YES) and
      Corollary 3 (polyhedron-witness NO);
    + MCS — reduce [S] to the non-reducible candidate set [S'];
      an empty [S'] is a definite NO;
    + optionally ([use_probes]) the deterministic witness-guided
      probes of {!Probes} on [S'];
    + ρw / d computation (Algorithm 2, Eq. 1) on [S'];
    + RSPC (Algorithm 1) with [min d max_iterations] trials —
      a point witness is a definite NO, exhaustion a probabilistic YES.

    Every stage can be toggled off through {!config} for the ablation
    experiments (§6.5 compares RSPC with and without MCS). *)

type config = {
  delta : float;  (** Acceptable error probability δ, in (0,1). *)
  use_fast_decisions : bool;  (** Apply Corollaries 1 and 3. *)
  use_mcs : bool;  (** Reduce with MCS before RSPC. *)
  use_probes : bool;
      (** Try the deterministic witness-guided probes of {!Probes}
          before spending random trials — a sound extension (default
          off to keep the measured behaviour aligned with the paper;
          see the ablation experiment for its effect). *)
  use_pruning : bool;
      (** Drop candidates that do not intersect [s] before every other
          stage (sound: a non-intersecting subscription contains no
          point of [s], so it cannot contribute to a cover or
          invalidate a witness). Pruning runs {e first}, so with it on
          the whole report is a function of (s, the ordered
          intersecting candidate subset, rng): callers that pre-confine
          the candidate set to the subscriptions intersecting [s] — the
          subscription store's shard gather — obtain bit-identical
          reports. Corollary 1
          verdicts are unaffected by pruning either way (a pairwise
          coverer always intersects [s]); Corollary 3 can only {e gain}
          witnesses from pruning, since removing rows preserves its
          Hall-style condition. Default on. *)
  max_iterations : int;
      (** Hard cap on RSPC trials; the theoretical [d] can reach 10^50
          (Fig. 7), so covered instances must stop somewhere. When the
          cap truncates [d], the achieved error bound is
          [(1 − ρw)^max_iterations], reported in {!report}. *)
}

val default_config : config
(** δ = 1e-6, all optimizations on, 100_000-trial cap. *)

val config :
  ?delta:float -> ?use_fast_decisions:bool -> ?use_mcs:bool ->
  ?use_probes:bool -> ?use_pruning:bool -> ?max_iterations:int -> unit ->
  config
(** {!default_config} with overrides.
    @raise Invalid_argument if [delta] is outside (0,1) or
    [max_iterations < 1]. *)

type reason =
  | Empty_set  (** [S] (or [S'] after MCS) contains no candidate. *)
  | Polyhedron of Witness.polyhedron  (** Corollary 3 witness. *)
  | Point of int array  (** RSPC found a point witness. *)

type verdict =
  | Covered_pairwise of int
      (** Definite YES: the indexed subscription singly covers [s]. *)
  | Covered_probably
      (** Probabilistic YES: no witness within the trial budget. *)
  | Not_covered of reason  (** Definite NO, with its evidence. *)

type report = {
  verdict : verdict;
  k_initial : int;  (** |S| before any reduction. *)
  k_pruned : int;
      (** Candidates left after intersection pruning (= k_initial when
          pruning is off). *)
  k_reduced : int;  (** |S'| checked by RSPC (= k_pruned if MCS off). *)
  mcs : Mcs.result option;
      (** MCS trace, when it ran — row indices remapped to positions in
          the {e original} [subs] array, so [kept] translates directly
          to store ids even when pruning dropped rows first. With
          pruning on, the trace partitions the {e pruned} candidate
          set; rows pruned away appear in neither list. *)
  rho : Rho.estimate option;
      (** ρw estimate on the reduced set, when the pipeline reached it. *)
  log10_d : float option;  (** Theoretical log10 d for δ, if computed. *)
  d_used : int;  (** Concrete trial budget handed to RSPC (0 if none). *)
  iterations : int;  (** RSPC trials actually performed. *)
  achieved_delta : float option;
      (** [(1 − ρw)^d_used] — equals δ unless the cap truncated [d]. *)
}

val is_covered : verdict -> bool
(** [true] on both YES verdicts. *)

val check :
  ?config:config -> ?packed:Flat.t -> rng:Prng.t ->
  Subscription.t -> Subscription.t array -> report
(** [check ~rng s subs] answers whether [subs] jointly cover [s].
    Definite answers (NO, pairwise YES) are always correct;
    [Covered_probably] errs with probability at most
    [achieved_delta] (Proposition 1).

    [?packed] must hold the bounds of [subs] row for row ([Flat.pack]
    of [subs], or a {!Flat.view} of the same rows); the subscription
    store passes the view of the active set it maintains in place, so
    the engine skips packing. Omitted, the engine packs internally.
    @raise Invalid_argument on an arity mismatch or when [packed]
    disagrees with [subs]. *)

val check_publication :
  ?config:config -> ?packed:Flat.t -> rng:Prng.t ->
  Publication.t -> Subscription.t array -> report
(** The general subsumption question for a publication (§1 models
    imprecise publications as boxes too): is the publication's box
    covered by the subscription union? A point publication degenerates
    to exact matching; a box publication is where the probabilistic
    machinery pays off. *)

val theoretical_log10_d :
  ?use_mcs:bool -> delta:float -> Subscription.t -> Subscription.t array ->
  float
(** The paper's Figs. 7/9 quantity: [log10 d] from Algorithm 2 for the
    given δ, on the MCS-reduced set (default) or the full set. Returns
    [neg_infinity] when no trials would be needed (empty candidate
    set). *)
