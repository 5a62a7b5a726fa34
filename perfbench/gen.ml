(* Seeded minic kernel generator: small Livermore-style loops (one to
   three statements over a few arrays, with constant offsets and
   loop-carried reads) for the serving workloads.  Every emitted
   source is compiled before it is returned, and duplicates of the same
   lowered kernel are redrawn, so a generated set has as many distinct
   scheduling problems as it has members. *)

type kernel = { name : string; source : string; kernel_key : string }

let arrays = [| "a"; "b"; "c"; "d" |]

let pick rng xs = xs.(Random.State.int rng (Array.length xs))

(* An array read at a constant offset from the induction variable k;
   the loop starts at k = 2 and arrays hold 160 elements, so offsets
   in [-2, 2] stay in bounds for every trip count the pipeline runs. *)
let read rng =
  let off = Random.State.int rng 5 - 2 in
  let arr = pick rng arrays in
  if off = 0 then Printf.sprintf "%s[k]" arr
  else if off > 0 then Printf.sprintf "%s[k+%d]" arr off
  else Printf.sprintf "%s[k-%d]" arr (-off)

let operand rng =
  match Random.State.int rng 4 with
  | 0 -> "w"
  | _ -> read rng

let expr rng =
  let terms = 2 + Random.State.int rng 2 in
  let buf = Buffer.create 32 in
  Buffer.add_string buf (operand rng);
  for _ = 2 to terms do
    Buffer.add_string buf (pick rng [| " + "; " - "; " * " |]);
    Buffer.add_string buf (operand rng)
  done;
  Buffer.contents buf

(* One statement: a plain array update, a loop-carried array
   recurrence (reads the element the previous iteration wrote), or a
   scalar recurrence through [s]. *)
let statement rng =
  match Random.State.int rng 4 with
  | 0 ->
      let dst = pick rng arrays in
      Printf.sprintf "%s[k] = %s[k-1] * w + %s;" dst dst (read rng)
  | 1 -> Printf.sprintf "s = s + %s * %s;" (read rng) (read rng)
  | _ -> Printf.sprintf "%s[k] = %s;" (pick rng arrays) (expr rng)

let source ~name ~stmts rng =
  let body =
    String.concat "\n    " (List.init stmts (fun _ -> statement rng))
  in
  Printf.sprintf
    "kernel %s {\n\
    \  param w : float = 0.5;\n\
    \  var s : float = 0.0;\n\
    \  array a[160];\n\
    \  array b[160];\n\
    \  array c[160];\n\
    \  array d[160];\n\
    \  for k = 2 to n {\n\
    \    %s\n\
    \  }\n\
     }\n"
    name body

(** [statements i] — how many statements the i-th kernel of a set has;
    every set mixes sizes in the same proportion whatever the seed. *)
let statements i = 1 + (i mod 3)

(** [kernels ~seed ~count] — [count] distinct compiled kernels, the
    i-th with [statements i] statements. *)
let kernels ~seed ~count =
  let rng = Random.State.make [| 0x9e1; seed |] in
  let seen = Hashtbl.create 64 in
  let rec draw i attempts =
    if attempts > 1000 then
      failwith "kernel generator: cannot find a distinct kernel";
    let name = Printf.sprintf "g%d" i in
    let src = source ~name ~stmts:(statements i) rng in
    match Minic.Compile.kernel_of_string src with
    | Error e ->
        failwith
          (Format.asprintf "kernel generator emitted a source that does not \
                            compile (%a):@.%s"
             Minic.Compile.pp_error e src)
    | Ok out ->
        let key = Grip_serve.Cache.kernel_key out.Minic.Compile.kernel in
        (* optimisation can fold a statement away entirely; a kernel
           with an empty body or an already drawn body is redrawn *)
        if Hashtbl.mem seen key || out.Minic.Compile.kernel.Grip.Kernel.body = []
        then draw i (attempts + 1)
        else begin
          Hashtbl.replace seen key ();
          { name; source = src; kernel_key = key }
        end
  in
  List.init count (fun i -> draw i 0)
