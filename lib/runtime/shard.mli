(** The multi-engine fleet: N independent streaming {!Engine}s — one
    per topology/dataset shard — multiplexed over an {!Ic_parallel.Pool}.

    Each shard owns its engine, its feed, and its telemetry sink; nothing
    mutable is shared between shards, so a round advances every live shard
    concurrently (one domain each, the {!Telemetry} single-writer rule)
    while each shard's own stream stays strictly sequential — per-shard
    estimates are bit-identical to running that shard alone. There is no
    crash recovery: an exception from a shard's step propagates out of
    {!run} once the round's other tasks have drained.

    The fleet multiplexes feeds round-robin: every round each
    unexhausted shard consumes up to [round_bins] bins, so long and short
    feeds interleave fairly instead of running to completion one by one,
    and the whole fleet reaches a common cut point at every round boundary
    — which is what makes the all-shard checkpoint meaningful.

    Aggregation ({!merged_counters}, {!merged_dump}) is order-independent
    (sorted counter names, shard sections sorted by shard name): the dump
    does not depend on scheduling or on the order shards were declared.

    {!save} writes one atomic checkpoint file holding every shard's engine
    snapshot (temp file + rename: a reader sees the old fleet state or the
    new one, never a mix). {!load} restores every engine and fast-forwards
    each fresh feed to its shard's position; resumed shards produce
    estimates bit-identical to never having stopped, per-shard, exactly as
    the single-engine {!Checkpoint} contract. Accumulated estimates are
    outputs, not state — they are not checkpointed. *)

type spec = {
  name : string;  (** unique, non-empty, no whitespace (checkpoint key) *)
  config : Engine.config;
  feed : Feed.t;
}

type t

val create :
  ?tracer:Ic_obs.Trace.t -> pool:Ic_parallel.Pool.t -> spec list -> t
(** Build one engine per spec. Raises [Invalid_argument] on an empty spec
    list, a duplicate/empty/whitespace name (whitespace includes newlines —
    names key the line-oriented fleet checkpoint), or an invalid engine
    config (see {!Engine.create}). [tracer] is shared by the fleet
    ([shard.round]/[shard.advance] spans) and every shard's engine; span
    recording is domain-safe, so concurrent shards may trace freely. *)

val names : t -> string list
(** In spec order. *)

val engines : t -> (string * Engine.t) list
(** In spec order. Engines are live state — do not step them directly
    while a {!run} is in flight. *)

val run :
  ?max_bins:int -> ?round_bins:int -> t -> (string * Replay.result) list
(** Advance every shard to feed exhaustion (or until it has consumed
    [max_bins] bins across this fleet's lifetime), in rounds of
    [round_bins] (default 32) bins per shard, shards within a round
    running concurrently on the pool. Returns, in spec order, each
    shard's accumulated results since {!create}/{!load} — estimates,
    per-bin prior rungs, and clamp totals, exactly as {!Replay.run}
    reports them. Idempotent once all feeds are exhausted. *)

val results : t -> (string * Replay.result) list
(** The accumulated results so far without advancing anything. *)

val merged_counters : t -> (string * int) list
(** Counters summed across all shards' engine sinks, sorted by name
    ({!Telemetry.merged}). *)

val merged_dump : t -> string
(** {!Telemetry.merged_dump} over the fleet: merged totals, then each
    shard's counters, shard sections sorted by name. Deterministic for a
    deterministic observation stream. *)

val save : path:string -> t -> unit
(** Snapshot every shard's engine into one file, atomically (temp +
    rename). Raises [Sys_error] on I/O failure. *)

val load :
  ?tracer:Ic_obs.Trace.t ->
  path:string ->
  pool:Ic_parallel.Pool.t ->
  spec list ->
  (t, string) result
(** Restore a fleet: parse the checkpoint, restore each spec's engine from
    the snapshot recorded under its name, and fast-forward each (fresh)
    feed past the bins its engine already consumed. The spec list must
    carry exactly the checkpoint's shard names (any order); returns
    [Error] — never raises — on a missing/corrupt file, a name mismatch,
    a record other than [end] after the shard snapshots, or a
    snapshot/config shape mismatch. *)
