(* Chrome trace-event JSON ("JSON Array Format" with a traceEvents
   wrapper). Timestamps are simulation steps used directly as
   microseconds; viewers only care about relative scale. Track layout:

     tid 0..n-1      PE i: task instants (execute/send/deliver/purge)
     tid n           marking: phase spans + cycle verdicts
     tid n+1         controller: pauses, stalls, expansions, completion

   Counter tracks ride on their "name" field. Every field is an integer
   and every record is printed in a fixed order, so equal recorder states
   produce byte-identical output. *)

let bpf = Printf.bprintf

type ctx = {
  b : Buffer.t;
  mutable first : bool;
  (* currently open marking-phase span: (phase, begin step, cycle) *)
  mutable open_phase : (Event.phase * int * int) option;
}

let record ctx fmt =
  if ctx.first then ctx.first <- false else Buffer.add_string ctx.b ",\n";
  Buffer.add_string ctx.b "  ";
  bpf ctx.b fmt

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let instant ctx ~name ~tid ~ts ~args =
  record ctx "{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"args\":{%s}}"
    (json_escape name) tid ts args

let span ctx ~name ~tid ~ts ~dur ~args =
  record ctx "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,\"ts\":%d,\"dur\":%d,\"args\":{%s}}"
    (json_escape name) tid ts dur args

let close_phase ctx ~mark_tid ~ts =
  match ctx.open_phase with
  | None -> ()
  | Some (phase, began, cycle) ->
    if phase <> Event.Idle then
      span ctx ~name:(Event.phase_name phase) ~tid:mark_tid ~ts:began
        ~dur:(Int.max 1 (ts - began))
        ~args:(Printf.sprintf "\"cycle\":%d" cycle);
    ctx.open_phase <- None

let chrome_trace r =
  let n = Recorder.num_pes r in
  let mark_tid = n and ctrl_tid = n + 1 in
  let ctx = { b = Buffer.create 65536; first = true; open_phase = None } in
  Buffer.add_string ctx.b "{\"traceEvents\":[\n";
  record ctx "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":0,\"args\":{\"name\":\"dgr\"}}";
  for pe = 0 to n - 1 do
    record ctx
      "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"PE %d\"}}"
      pe pe
  done;
  record ctx
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"marking\"}}"
    mark_tid;
  record ctx
    "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":%d,\"args\":{\"name\":\"controller\"}}"
    ctrl_tid;
  let pe_tid pe = if pe >= 0 && pe < n then pe else ctrl_tid in
  List.iter
    (fun { Event.step = ts; seq; kind } ->
      let seq_arg = Printf.sprintf "\"seq\":%d" seq in
      match kind with
      | Event.Execute { kind; pe; vid; lin } ->
        instant ctx ~name:(Event.task_kind_name kind) ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"vid\":%d,\"lin\":%d,%s" vid lin seq_arg)
      | Event.Send { kind; pe; vid; arrival; remote; lin } ->
        instant ctx
          ~name:("send:" ^ Event.task_kind_name kind)
          ~tid:(pe_tid pe) ~ts
          ~args:
            (Printf.sprintf "\"vid\":%d,\"arrival\":%d,\"remote\":%d,\"lin\":%d,%s" vid
               arrival
               (if remote then 1 else 0)
               lin seq_arg)
      | Event.Deliver { kind; pe; vid; lin } ->
        instant ctx
          ~name:("deliver:" ^ Event.task_kind_name kind)
          ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"vid\":%d,\"lin\":%d,%s" vid lin seq_arg)
      | Event.Purge { pe; count } ->
        instant ctx ~name:"purge" ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"count\":%d,%s" count seq_arg)
      | Event.Phase { phase; cycle; wave = _ } ->
        close_phase ctx ~mark_tid ~ts;
        ctx.open_phase <- Some (phase, ts, cycle)
      | Event.Pause { steps; reason } ->
        span ctx
          ~name:("pause:" ^ Event.pause_reason_name reason)
          ~tid:ctrl_tid ~ts ~dur:(Int.max 1 steps) ~args:seq_arg
      | Event.Heap_pressure { headroom } ->
        instant ctx ~name:"heap_pressure" ~tid:ctrl_tid ~ts
          ~args:(Printf.sprintf "\"headroom\":%d,%s" headroom seq_arg)
      | Event.Alloc_stall { vid } ->
        instant ctx ~name:"alloc_stall" ~tid:ctrl_tid ~ts
          ~args:(Printf.sprintf "\"vid\":%d,%s" vid seq_arg)
      | Event.Expand { vid; entry } ->
        instant ctx ~name:"expand" ~tid:ctrl_tid ~ts
          ~args:(Printf.sprintf "\"vid\":%d,\"entry\":%d,%s" vid entry seq_arg)
      | Event.Coop_spawn { pe; parent; child } ->
        instant ctx ~name:"coop_spawn" ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"parent\":%d,\"child\":%d,%s" parent child seq_arg)
      | Event.Coop_closure { pe; from_; marked } ->
        instant ctx ~name:"coop_closure" ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"from\":%d,\"marked\":%d,%s" from_ marked seq_arg)
      | Event.Deadlock { vids } ->
        instant ctx ~name:"deadlock" ~tid:mark_tid ~ts
          ~args:
            (Printf.sprintf "\"count\":%d,\"vids\":\"%s\",%s" (List.length vids)
               (String.concat " " (List.map string_of_int vids))
               seq_arg)
      | Event.Irrelevant { purged } ->
        instant ctx ~name:"irrelevant" ~tid:mark_tid ~ts
          ~args:(Printf.sprintf "\"purged\":%d,%s" purged seq_arg)
      | Event.Cycle_done { cycle; garbage } ->
        instant ctx ~name:"cycle_done" ~tid:mark_tid ~ts
          ~args:(Printf.sprintf "\"cycle\":%d,\"garbage\":%d,%s" cycle garbage seq_arg)
      | Event.Drop { kind; pe; vid } ->
        instant ctx
          ~name:("drop:" ^ Event.task_kind_name kind)
          ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"vid\":%d,%s" vid seq_arg)
      | Event.Dup { kind; pe; vid } ->
        instant ctx
          ~name:("dup:" ^ Event.task_kind_name kind)
          ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"vid\":%d,%s" vid seq_arg)
      | Event.Retransmit { kind; pe; vid; attempt } ->
        instant ctx
          ~name:("retransmit:" ^ Event.task_kind_name kind)
          ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"vid\":%d,\"attempt\":%d,%s" vid attempt seq_arg)
      | Event.Stall { pe; steps } ->
        span ctx ~name:"stall" ~tid:(pe_tid pe) ~ts ~dur:(Int.max 1 steps) ~args:seq_arg
      | Event.Batch { src; dst; count } ->
        instant ctx ~name:"batch" ~tid:(pe_tid dst) ~ts
          ~args:(Printf.sprintf "\"src\":%d,\"tasks\":%d,%s" src count seq_arg)
      | Event.Cum_ack { src; dst; upto; piggyback } ->
        instant ctx ~name:"cum_ack" ~tid:(pe_tid dst) ~ts
          ~args:
            (Printf.sprintf "\"src\":%d,\"upto\":%d,\"piggyback\":%d,%s" src upto
               (if piggyback then 1 else 0)
               seq_arg)
      | Event.Pe_crash { pe; lost; down } ->
        (* the downtime as a span on the PE's own track *)
        span ctx ~name:"pe_crash" ~tid:(pe_tid pe) ~ts ~dur:(Int.max 1 down)
          ~args:(Printf.sprintf "\"lost\":%d,\"down\":%d,%s" lost down seq_arg)
      | Event.Pe_recover { pe; down } ->
        instant ctx ~name:"pe_recover" ~tid:(pe_tid pe) ~ts
          ~args:(Printf.sprintf "\"down\":%d,%s" down seq_arg)
      | Event.Health { health; value } ->
        instant ctx
          ~name:("health:" ^ Event.health_name health)
          ~tid:ctrl_tid ~ts
          ~args:(Printf.sprintf "\"value\":%d,%s" value seq_arg)
      | Event.Finished -> instant ctx ~name:"finished" ~tid:ctrl_tid ~ts ~args:seq_arg)
    (Recorder.events r);
  close_phase ctx ~mark_tid ~ts:(Recorder.now r);
  let counter name ts args =
    record ctx "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":0,\"ts\":%d,\"args\":{%s}}" name ts args
  in
  let per_pe a =
    String.concat ","
      (List.init (Array.length a) (fun i -> Printf.sprintf "\"pe%d\":%d" i a.(i)))
  in
  List.iter
    (fun (s : Recorder.sample) ->
      counter "pool_depth" s.Recorder.s_step (per_pe s.Recorder.s_pool_depth);
      counter "exec_marking" s.Recorder.s_step (per_pe s.Recorder.s_marking);
      counter "exec_reduction" s.Recorder.s_step (per_pe s.Recorder.s_reduction);
      counter "heap" s.Recorder.s_step
        (Printf.sprintf "\"live\":%d,\"headroom\":%d" s.Recorder.s_live
           s.Recorder.s_headroom);
      counter "in_flight" s.Recorder.s_step
        (Printf.sprintf "\"msgs\":%d" s.Recorder.s_in_flight);
      counter "faults" s.Recorder.s_step
        (Printf.sprintf "\"drops\":%d,\"dups\":%d,\"retransmits\":%d,\"stalls\":%d"
           s.Recorder.s_drops s.Recorder.s_dups s.Recorder.s_retransmits
           s.Recorder.s_stalls);
      counter "transport" s.Recorder.s_step
        (Printf.sprintf
           "\"frames\":%d,\"batched_tasks\":%d,\"acks_piggybacked\":%d"
           s.Recorder.s_frames s.Recorder.s_batched_tasks
           s.Recorder.s_acks_piggybacked))
    (Recorder.samples r);
  Buffer.add_string ctx.b "\n]}\n";
  Buffer.contents ctx.b

let timeseries_csv r =
  let b = Buffer.create 4096 in
  Buffer.add_string b
    "step,pe,pool_depth,marking,reduction,live,in_flight,headroom,drops,dups,retransmits,stalls,frames,batched_tasks,acks_piggybacked\n";
  List.iter
    (fun (s : Recorder.sample) ->
      Array.iteri
        (fun pe depth ->
          bpf b "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" s.Recorder.s_step
            pe depth s.Recorder.s_marking.(pe) s.Recorder.s_reduction.(pe)
            s.Recorder.s_live s.Recorder.s_in_flight s.Recorder.s_headroom
            s.Recorder.s_drops s.Recorder.s_dups s.Recorder.s_retransmits
            s.Recorder.s_stalls s.Recorder.s_frames s.Recorder.s_batched_tasks
            s.Recorder.s_acks_piggybacked)
        s.Recorder.s_pool_depth)
    (Recorder.samples r);
  Buffer.contents b

let timeseries_json r =
  let b = Buffer.create 4096 in
  bpf b "{\"sample_every\":%d,\"num_pes\":%d,\"samples\":[\n" (Recorder.sample_every r)
    (Recorder.num_pes r);
  let ints a =
    String.concat "," (List.init (Array.length a) (fun i -> string_of_int a.(i)))
  in
  let first = ref true in
  List.iter
    (fun (s : Recorder.sample) ->
      if !first then first := false else Buffer.add_string b ",\n";
      bpf b
        "  {\"step\":%d,\"live\":%d,\"in_flight\":%d,\"headroom\":%d,\"pool_depth\":[%s],\"marking\":[%s],\"reduction\":[%s],\"drops\":%d,\"dups\":%d,\"retransmits\":%d,\"stalls\":%d,\"frames\":%d,\"batched_tasks\":%d,\"acks_piggybacked\":%d}"
        s.Recorder.s_step s.Recorder.s_live s.Recorder.s_in_flight s.Recorder.s_headroom
        (ints s.Recorder.s_pool_depth) (ints s.Recorder.s_marking)
        (ints s.Recorder.s_reduction) s.Recorder.s_drops s.Recorder.s_dups
        s.Recorder.s_retransmits s.Recorder.s_stalls s.Recorder.s_frames
        s.Recorder.s_batched_tasks s.Recorder.s_acks_piggybacked)
    (Recorder.samples r);
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)
