type task_kind = Request | Respond | Cancel | Mark | Return_mark

type phase = Idle | Mark_tasks | Mark_root | Restructure

type pause_reason = Restructure_pause | Stw_pause

type health = Mark_wave_stall | Quiescence_stall | Retransmit_storm

type kind =
  | Send of {
      kind : task_kind;
      pe : int;
      vid : int;
      arrival : int;
      remote : bool;
      lin : int;
    }
  | Deliver of { kind : task_kind; pe : int; vid : int; lin : int }
  | Execute of { kind : task_kind; pe : int; vid : int; lin : int }
  | Purge of { pe : int; count : int }
  | Phase of { phase : phase; cycle : int; wave : int }
  | Pause of { steps : int; reason : pause_reason }
  | Heap_pressure of { headroom : int }
  | Alloc_stall of { vid : int }
  | Expand of { vid : int; entry : int }
  | Coop_spawn of { pe : int; parent : int; child : int }
  | Coop_closure of { pe : int; from_ : int; marked : int }
  | Deadlock of { vids : int list }
  | Cycle_done of { cycle : int; garbage : int }
  | Drop of { kind : task_kind; pe : int; vid : int }
  | Dup of { kind : task_kind; pe : int; vid : int }
  | Retransmit of { kind : task_kind; pe : int; vid : int; attempt : int }
  | Stall of { pe : int; steps : int }
  | Batch of { src : int; dst : int; count : int }
  | Cum_ack of { src : int; dst : int; upto : int; piggyback : bool }
  | Pe_crash of { pe : int; lost : int; down : int }
  | Pe_recover of { pe : int; down : int }
  | Health of { health : health; value : int }
  | Finished

type t = { step : int; seq : int; kind : kind }

let task_kind_name = function
  | Request -> "request"
  | Respond -> "respond"
  | Cancel -> "cancel"
  | Mark -> "mark"
  | Return_mark -> "return"

let phase_name = function
  | Idle -> "idle"
  | Mark_tasks -> "M_T"
  | Mark_root -> "M_R"
  | Restructure -> "restructure"

let pause_reason_name = function
  | Restructure_pause -> "restructure"
  | Stw_pause -> "stw"

let health_name = function
  | Mark_wave_stall -> "mark_wave_stall"
  | Quiescence_stall -> "quiescence_stall"
  | Retransmit_storm -> "retransmit_storm"

let pp_kind fmt = function
  | Send { kind; pe; vid; arrival; remote; lin } ->
    Format.fprintf fmt "send %s pe=%d vid=%d arrival=%d lin=%d%s" (task_kind_name kind)
      pe vid arrival lin
      (if remote then " remote" else "")
  | Deliver { kind; pe; vid; lin } ->
    Format.fprintf fmt "deliver %s pe=%d vid=%d lin=%d" (task_kind_name kind) pe vid lin
  | Execute { kind; pe; vid; lin } ->
    Format.fprintf fmt "execute %s pe=%d vid=%d lin=%d" (task_kind_name kind) pe vid lin
  | Purge { pe; count } -> Format.fprintf fmt "purge pe=%d count=%d" pe count
  | Phase { phase; cycle; wave } ->
    Format.fprintf fmt "phase %s cycle=%d wave=%d" (phase_name phase) cycle wave
  | Pause { steps; reason } ->
    Format.fprintf fmt "pause %d (%s)" steps (pause_reason_name reason)
  | Heap_pressure { headroom } -> Format.fprintf fmt "heap-pressure headroom=%d" headroom
  | Alloc_stall { vid } -> Format.fprintf fmt "alloc-stall vid=%d" vid
  | Expand { vid; entry } -> Format.fprintf fmt "expand vid=%d entry=%d" vid entry
  | Coop_spawn { pe; parent; child } ->
    Format.fprintf fmt "coop-spawn pe=%d parent=%d child=%d" pe parent child
  | Coop_closure { pe; from_; marked } ->
    Format.fprintf fmt "coop-closure pe=%d from=%d marked=%d" pe from_ marked
  | Deadlock { vids } ->
    Format.fprintf fmt "deadlock [%s]" (String.concat " " (List.map string_of_int vids))
  | Cycle_done { cycle; garbage } ->
    Format.fprintf fmt "cycle-done cycle=%d garbage=%d" cycle garbage
  | Drop { kind; pe; vid } ->
    Format.fprintf fmt "drop %s pe=%d vid=%d" (task_kind_name kind) pe vid
  | Dup { kind; pe; vid } ->
    Format.fprintf fmt "dup %s pe=%d vid=%d" (task_kind_name kind) pe vid
  | Retransmit { kind; pe; vid; attempt } ->
    Format.fprintf fmt "retransmit %s pe=%d vid=%d attempt=%d" (task_kind_name kind) pe vid
      attempt
  | Stall { pe; steps } -> Format.fprintf fmt "stall pe=%d steps=%d" pe steps
  | Batch { src; dst; count } ->
    Format.fprintf fmt "batch link=%d->%d tasks=%d" src dst count
  | Cum_ack { src; dst; upto; piggyback } ->
    Format.fprintf fmt "cum-ack link=%d->%d upto=%d%s" src dst upto
      (if piggyback then " piggyback" else "")
  | Pe_crash { pe; lost; down } ->
    Format.fprintf fmt "pe-crash pe=%d lost=%d down=%d" pe lost down
  | Pe_recover { pe; down } -> Format.fprintf fmt "pe-recover pe=%d down=%d" pe down
  | Health { health; value } ->
    Format.fprintf fmt "health %s value=%d" (health_name health) value
  | Finished -> Format.pp_print_string fmt "finished"

let pp fmt t = Format.fprintf fmt "@[[%d.%d] %a@]" t.step t.seq pp_kind t.kind
