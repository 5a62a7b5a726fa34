(* Every GRiP cell of the Table 1 artifact (bench/BENCH_gate.json, one
   provenance-on sweep) carries a critical chain and sane bounds: the
   Bottleneck.bounds_defect check json-validate applies, one case per
   Livermore kernel and machine width. *)

module Json = Grip_obs.Json
module Livermore = Workloads.Livermore

let artifact =
  lazy
    (In_channel.with_open_bin "../bench/BENCH_gate.json" In_channel.input_all
    |> Json.parse |> Result.get_ok)

let check_cell name fu () =
  let ( let* ) = Option.bind in
  let bottleneck =
    let* loops = Option.bind (Json.member "loops" (Lazy.force artifact)) Json.to_list in
    let* loop =
      List.find_opt
        (fun l -> Option.bind (Json.member "name" l) Json.to_str = Some name)
        loops
    in
    let* cells = Json.member (Printf.sprintf "fu%d" fu) loop in
    Option.bind (Json.member "grip" cells) (Json.member "bottleneck")
  in
  Alcotest.(check (option string))
    (Printf.sprintf "%s/%dFU bounds" name fu)
    None
    (match bottleneck with
    | Some b -> Grip_obs.Bottleneck.bounds_defect b
    | None -> Some "no GRiP bottleneck block")

let () =
  Alcotest.run "table1"
    [
      ( "livermore",
        List.concat_map
          (fun (e : Livermore.entry) ->
            let name = e.Livermore.kernel.Grip.Kernel.name in
            List.map
              (fun fu ->
                Alcotest.test_case
                  (Printf.sprintf "explain %s %dFU" name fu)
                  `Quick (check_cell name fu))
              [ 2; 4; 8 ])
          Livermore.all );
    ]
