(* Executor: sequential reference + persistent domain pool.

   The pool is deliberately simple: one mutex, two condition
   variables, task distribution by shared-counter grab.  A batch is
   published by bumping [generation]; workers that see a fresh
   generation pull task indices until the counter is exhausted.  The
   submitting domain participates in its own batch, then blocks until
   [pending] reaches zero, so at most one batch is in flight and the
   pool state can be reused without further synchronization.

   Exceptions raised by tasks are recorded (first one wins), the rest
   of the batch still drains, and the exception is re-raised on the
   submitting domain with its original backtrace. *)

type t = Seq | Domains of int

let of_jobs n = if n <= 1 then Seq else Domains n
let jobs = function Seq -> 1 | Domains n -> n

let name = function
  | Seq -> "seq"
  | Domains n -> Printf.sprintf "domains:%d" n

let default_exec = ref Seq
let default () = !default_exec
let set_default e = default_exec := e

let with_default e f =
  let saved = !default_exec in
  default_exec := e;
  Fun.protect ~finally:(fun () -> default_exec := saved) f

let worker_flag : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get worker_flag

type pool = {
  mutex : Mutex.t;
  work : Condition.t;  (* workers: a new batch (or stop) is available *)
  drained : Condition.t;  (* submitter: pending reached zero *)
  mutable generation : int;
  mutable body : int -> unit;
  mutable next : int;  (* next task index to grab *)
  mutable total : int;
  mutable pending : int;  (* tasks not yet completed *)
  mutable width : int;  (* workers allowed to join the current batch *)
  mutable failure : (exn * Printexc.raw_backtrace) option;
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let pool_ref : pool option ref = ref None

(* Grab-and-run loop shared by workers and the submitting domain.
   Called and returns with [p.mutex] held. *)
let drain_tasks p =
  while p.next < p.total do
    let i = p.next in
    p.next <- i + 1;
    Mutex.unlock p.mutex;
    let fail =
      try
        p.body i;
        None
      with e -> Some (e, Printexc.get_raw_backtrace ())
    in
    Mutex.lock p.mutex;
    (match fail with
    | Some f when p.failure = None -> p.failure <- Some f
    | _ -> ());
    p.pending <- p.pending - 1;
    if p.pending = 0 then Condition.broadcast p.drained
  done

let worker_main p k =
  Domain.DLS.set worker_flag true;
  let last_gen = ref 0 in
  Mutex.lock p.mutex;
  let rec loop () =
    if p.stop then Mutex.unlock p.mutex
    else if p.generation <> !last_gen && k < p.width then begin
      last_gen := p.generation;
      drain_tasks p;
      loop ()
    end
    else begin
      Condition.wait p.work p.mutex;
      loop ()
    end
  in
  loop ()

let shutdown () =
  match !pool_ref with
  | None -> ()
  | Some p ->
    Mutex.lock p.mutex;
    p.stop <- true;
    Condition.broadcast p.work;
    Mutex.unlock p.mutex;
    List.iter Domain.join p.workers;
    pool_ref := None

let get_pool () =
  match !pool_ref with
  | Some p -> p
  | None ->
    let p =
      {
        mutex = Mutex.create ();
        work = Condition.create ();
        drained = Condition.create ();
        generation = 0;
        body = ignore;
        next = 0;
        total = 0;
        pending = 0;
        width = 0;
        failure = None;
        stop = false;
        workers = [];
      }
    in
    pool_ref := Some p;
    at_exit shutdown;
    p

let ensure_workers p count =
  let have = List.length p.workers in
  for k = have to count - 1 do
    p.workers <- Domain.spawn (fun () -> worker_main p k) :: p.workers
  done

(* Run [body 0 .. body (n-1)] on the pool with [extra] worker domains
   plus the calling domain.  Blocks until the batch drains. *)
let run_batch ~extra n body =
  let p = get_pool () in
  Mutex.lock p.mutex;
  ensure_workers p extra;
  p.generation <- p.generation + 1;
  p.body <- body;
  p.next <- 0;
  p.total <- n;
  p.pending <- n;
  p.width <- extra;
  p.failure <- None;
  Condition.broadcast p.work;
  (* The submitting domain participates in its own batch; while it
     does, it counts as a worker so a task that re-enters [map] on
     this domain degrades to sequential instead of corrupting the
     in-flight batch. *)
  let was_worker = Domain.DLS.get worker_flag in
  Domain.DLS.set worker_flag true;
  drain_tasks p;
  Domain.DLS.set worker_flag was_worker;
  while p.pending > 0 do
    Condition.wait p.drained p.mutex
  done;
  let failure = p.failure in
  p.body <- ignore;
  p.failure <- None;
  Mutex.unlock p.mutex;
  match failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

let resolve = function Some e -> e | None -> !default_exec

let map ?executor n f =
  match resolve executor with
  | Seq -> Array.init n f
  | Domains j when j <= 1 || n <= 1 || in_worker () -> Array.init n f
  | Domains j ->
    let slots = Array.make n None in
    run_batch
      ~extra:(min (j - 1) (n - 1))
      n
      (fun i -> slots.(i) <- Some (f i));
    Array.map
      (function Some v -> v | None -> invalid_arg "Executor.map: lost slot")
      slots
