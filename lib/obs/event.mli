(** Structured trace events.

    One event is one thing the machine did, stamped with the simulation
    step it happened at and a monotonically increasing sequence number
    (assigned by the {!Recorder}, which is also what disambiguates events
    within a step). Vertex and PE identities are carried as plain [int]s
    so this library depends on nothing — the simulator maps its own types
    down when emitting ({!Dgr_task.Task.obs_kind}). [-1] stands for "the
    controller" wherever a PE is expected and for "no vertex" wherever a
    vid is expected. *)

type task_kind = Request | Respond | Cancel | Mark | Return_mark

type phase = Idle | Mark_tasks | Mark_root | Restructure
(** Marking-cycle phases as the trace sees them: the controller's
    [Idle → M_T → M_R] state machine plus the synchronous restructure
    stop that closes a cycle. *)

type pause_reason = Restructure_pause | Stw_pause

type health = Mark_wave_stall | Quiescence_stall | Retransmit_storm
(** Watchdog verdicts: the mark wave stopped advancing while a cycle
    is active, the machine stopped retiring tasks while work remains,
    or retransmissions crossed the storm threshold within a window. *)

type kind =
  | Send of {
      kind : task_kind;
      pe : int;
      vid : int;
      arrival : int;
      remote : bool;
      lin : int;
    }
      (** a task entered the network, to arrive at [pe] at step
          [arrival]; [lin] is its causal lineage id ([-1]: untracked) *)
  | Deliver of { kind : task_kind; pe : int; vid : int; lin : int }
      (** the network handed a task to [pe]'s pool *)
  | Execute of { kind : task_kind; pe : int; vid : int; lin : int }
      (** [pe] executed a task addressed at [vid] *)
  | Purge of { pe : int; count : int }
      (** [count] stale reduction tasks dropped on their way into or
          out of [pe]'s pool, or at the retry of an expansion parked for
          it ([-1]: a parked task addressed to the controller) *)
  | Phase of { phase : phase; cycle : int; wave : int }
      (** the marking controller entered [phase] of cycle number [cycle];
          [wave] is the graph's current wave counter (the epoch tag the
          phase's mark tasks carry), so overlapping-epoch debris in a
          trace can be attributed to the wave that spawned it *)
  | Pause of { steps : int; reason : pause_reason }
      (** the whole machine stops executing for [steps] steps *)
  | Heap_pressure of { headroom : int }
      (** a collection was triggered early by a low free list *)
  | Alloc_stall of { vid : int }
      (** an expansion of [vid] parked: the free list could not supply it *)
  | Expand of { vid : int; entry : int }
      (** [vid] was expanded by template instantiation rooted at [entry] *)
  | Coop_spawn of { pe : int; parent : int; child : int }
      (** the mutator charged a cooperation mark task to [parent] *)
  | Coop_closure of { pe : int; from_ : int; marked : int }
      (** the mutator synchronously marked [marked] vertices from [from_] *)
  | Deadlock of { vids : int list }  (** restructure's DL' verdict *)
  | Cycle_done of { cycle : int; garbage : int }
  | Drop of { kind : task_kind; pe : int; vid : int }
      (** the fault plane lost a frame bound for [pe] in transit *)
  | Dup of { kind : task_kind; pe : int; vid : int }
      (** the fault plane duplicated a frame bound for [pe] *)
  | Retransmit of { kind : task_kind; pe : int; vid : int; attempt : int }
      (** an unacknowledged frame timed out and was sent again *)
  | Stall of { pe : int; steps : int }
      (** [pe] stops executing for [steps] steps (pool and heap survive) *)
  | Batch of { src : int; dst : int; count : int }
      (** a data frame carrying [count] tasks flushed onto link
          [src]→[dst] *)
  | Cum_ack of { src : int; dst : int; upto : int; piggyback : bool }
      (** the receiver on data link [src]→[dst] acknowledged every frame
          up to sequence [upto], riding a reverse data frame when
          [piggyback] *)
  | Pe_crash of { pe : int; lost : int; down : int }
      (** [pe] crashed: its pool, striped segment and in-flight frames
          are gone ([lost] tasks destroyed); it stays down [down] steps *)
  | Pe_recover of { pe : int; down : int }
      (** [pe] came back up empty-handed after [down] steps of downtime *)
  | Health of { health : health; value : int }
      (** a watchdog fired; [value] is the stalled-step count or the
          retransmit count inside the storm window *)
  | Finished  (** the root's value arrived *)

type t = { step : int; seq : int; kind : kind }

val task_kind_name : task_kind -> string

val phase_name : phase -> string

val pause_reason_name : pause_reason -> string

val health_name : health -> string

val pp : Format.formatter -> t -> unit
