module Library = Aging_liberty.Library
module Netlist = Aging_netlist.Netlist
module Cell = Aging_cells.Cell
module Timing = Aging_sta.Timing

let default_slew_limit = 1e-10

let worst_slew analysis net =
  Float.max
    (Timing.slew_at analysis net Library.Rise)
    (Timing.slew_at analysis net Library.Fall)

(* Upsize: next stronger drive variant in the library, preserving any
   corner index suffix semantics by swapping the whole cell name. *)
let upsized library (inst : Netlist.instance) =
  let cell = Netlist.catalog_cell inst in
  let stronger =
    List.filter
      (fun (e : Library.entry) ->
        e.Library.cell.Cell.base = cell.Cell.base
        && e.Library.cell.Cell.drive > cell.Cell.drive)
      (Library.entries library)
  in
  match
    List.sort
      (fun (a : Library.entry) b ->
        compare a.Library.cell.Cell.drive b.Library.cell.Cell.drive)
      stronger
  with
  | [] -> None
  | e :: _ -> Some e.Library.indexed_name

let insert_buffer (t : Netlist.t) ~net ~buf_cell ~inst_name =
  let buf_net = t.Netlist.n_nets in
  let instances =
    Array.map
      (fun (inst : Netlist.instance) ->
        {
          inst with
          Netlist.inputs =
            List.map
              (fun (pin, n) -> (pin, if n = net then buf_net else n))
              inst.Netlist.inputs;
        })
      t.Netlist.instances
  in
  let buffer =
    {
      Netlist.inst_name;
      cell_name = buf_cell;
      inputs = [ ("A", net) ];
      outputs = [ ("Y", buf_net) ];
    }
  in
  {
    t with
    Netlist.n_nets = t.Netlist.n_nets + 1;
    instances = Array.append instances [| buffer |];
  }

let repair ?(slew_limit = default_slew_limit) ~library netlist =
  (* Buffer names must not collide with instances already in the netlist,
     which may itself come out of an earlier repair. *)
  let taken = Hashtbl.create (Array.length netlist.Netlist.instances) in
  Array.iter
    (fun (inst : Netlist.instance) -> Hashtbl.replace taken inst.Netlist.inst_name ())
    netlist.Netlist.instances;
  let next_buf = ref 0 in
  let rec fresh_name () =
    incr next_buf;
    let name = Printf.sprintf "SRBUF%d" !next_buf in
    if Hashtbl.mem taken name then fresh_name () else name
  in
  let rec iterate netlist remaining =
    if remaining = 0 then netlist
    else begin
      let analysis = Timing.analyze ~library netlist in
      let base_period = Timing.min_period analysis in
      (* Driver map: net -> instance index. *)
      let driver = Hashtbl.create 256 in
      Array.iteri
        (fun idx (inst : Netlist.instance) ->
          List.iter (fun (_, n) -> Hashtbl.replace driver n idx) inst.Netlist.outputs)
        netlist.Netlist.instances;
      let offenders = ref [] in
      Hashtbl.iter
        (fun net _ ->
          let s = worst_slew analysis net in
          if s > slew_limit then offenders := (s, net) :: !offenders)
        driver;
      let offenders =
        List.sort (fun (a, _) (b, _) -> compare b a) !offenders
      in
      let rec take n = function
        | [] -> []
        | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
      in
      let offenders = take 20 offenders in
      if offenders = [] then netlist
      else begin
        let improved = ref false in
        let current = ref netlist in
        let current_period = ref base_period in
        List.iter
          (fun (_, net) ->
            match Hashtbl.find_opt driver net with
            | None -> ()
            | Some idx ->
              let inst = netlist.Netlist.instances.(idx) in
              let candidate =
                match upsized library inst with
                | Some stronger ->
                  (* By index: buffers are appended, so [idx] still names
                     this instance in [!current]. *)
                  let instances = Array.copy !current.Netlist.instances in
                  instances.(idx) <- { instances.(idx) with Netlist.cell_name = stronger };
                  Some { !current with Netlist.instances }
                | None ->
                  Some
                    (insert_buffer !current ~net ~buf_cell:"BUF_X4"
                       ~inst_name:(fresh_name ()))
              in
              Option.iter
                (fun cand ->
                  let p =
                    Timing.min_period (Timing.analyze ~library cand)
                  in
                  if p <= !current_period +. 1e-13 then begin
                    current := cand;
                    current_period := p;
                    improved := true
                  end)
                candidate)
          offenders;
        if !improved then iterate !current (remaining - 1) else !current
      end
    end
  in
  iterate netlist 5
