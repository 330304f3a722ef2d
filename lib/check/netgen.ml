module Rng = Aging_util.Rng
module Netlist = Aging_netlist.Netlist
module Catalog = Aging_cells.Catalog

type gate = { cell : int; srcs : int list }

type spec = {
  n_inputs : int;
  n_ffs : int;
  gates : gate list;
  ff_srcs : int list;
  out_srcs : int list;
  stim_seed : int;
}

let cell_pool =
  Array.of_list
    (List.map Catalog.find_exn
       [
         "INV_X1"; "BUF_X1"; "NAND2_X1"; "NOR2_X1"; "AND2_X1"; "OR2_X1";
         "XOR2_X1"; "XNOR2_X1"; "NAND3_X1"; "NOR3_X1"; "MUX2_X1"; "AOI21_X1";
         "OAI21_X1"; "HA_X1";
       ])

let max_arity =
  Array.fold_left
    (fun m (c : Aging_cells.Cell.t) -> max m (List.length c.inputs))
    0 cell_pool

let spec =
  let open QCheck2.Gen in
  let gate =
    map2
      (fun cell srcs -> { cell; srcs })
      (int_range 0 (Array.length cell_pool - 1))
      (list_repeat max_arity (int_range 0 1023))
  in
  let+ n_inputs = int_range 1 5
  and+ n_ffs = int_range 0 3
  and+ gates = list_size (int_range 1 25) gate
  and+ ff_srcs = list_repeat 3 (int_range 0 1023)
  and+ out_srcs = list_size (int_range 1 4) (int_range 0 1023)
  and+ stim_seed = int_range 0 1_000_000 in
  { n_inputs; n_ffs; gates; ff_srcs; out_srcs; stim_seed }

let pick avail raw = List.nth avail (raw mod List.length avail)

let build s =
  let open Netlist.Builder in
  let b = create "propnet" in
  if s.n_ffs > 0 then ignore (clock b "clk");
  let ins = List.init s.n_inputs (fun i -> input b (Printf.sprintf "in%d" i)) in
  let ffq = List.init s.n_ffs (fun _ -> fresh_net b) in
  let avail = ref (ins @ ffq) in
  List.iter
    (fun g ->
      let c = cell_pool.(g.cell) in
      let arity = List.length c.Aging_cells.Cell.inputs in
      let srcs = List.filteri (fun i _ -> i < arity) g.srcs in
      let inputs =
        List.map2
          (fun pin raw -> (pin, pick !avail raw))
          c.Aging_cells.Cell.inputs srcs
      in
      let outs = cell b c.Aging_cells.Cell.name ~inputs in
      avail := !avail @ outs)
    s.gates;
  List.iteri
    (fun k q ->
      let raw = List.nth s.ff_srcs k in
      cell_into b "DFF_X1"
        ~inputs:[ ("D", pick !avail raw) ]
        ~outputs:[ ("Q", q) ])
    ffq;
  List.iteri
    (fun k raw -> output b (Printf.sprintf "out%d" k) (pick !avail raw))
    s.out_srcs;
  finish b

let stimulus s cycle =
  let rng = Rng.create (Rng.derive (Int64.of_int s.stim_seed) (cycle + 1)) in
  List.init s.n_inputs (fun i -> (Printf.sprintf "in%d" i, Rng.bool rng))

let pp_spec s =
  let gate_str g =
    Printf.sprintf "%s(%s)" cell_pool.(g.cell).Aging_cells.Cell.name
      (String.concat ","
         (List.map string_of_int
            (List.filteri
               (fun i _ ->
                 i < List.length cell_pool.(g.cell).Aging_cells.Cell.inputs)
               g.srcs)))
  in
  Printf.sprintf
    "{inputs=%d ffs=%d gates=[%s] ff_srcs=[%s] out_srcs=[%s] stim_seed=%d}"
    s.n_inputs s.n_ffs
    (String.concat "; " (List.map gate_str s.gates))
    (String.concat "," (List.map string_of_int s.ff_srcs))
    (String.concat "," (List.map string_of_int s.out_srcs))
    s.stim_seed
