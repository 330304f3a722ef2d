module Event_sim = Aging_sim.Event_sim
module Image = Aging_image.Image
module Dct = Aging_image.Dct
module Designs = Aging_designs.Designs

let io_width = Designs.transform_io_width
let io_mask = (1 lsl io_width) - 1
let latency = 2

(* Port names per lane and bit: [I<lane>[bit]] and [O<lane>[bit]]. *)
let port_names prefix =
  Array.init 8 (fun lane ->
      Array.init io_width (fun bit -> Printf.sprintf "%s%d[%d]" prefix lane bit))

let input_names = port_names "I"
let output_names = port_names "O"

let port_bits lane value =
  List.init io_width (fun bit ->
      (input_names.(lane).(bit), (value land io_mask) lsr bit land 1 = 1))

(* Position of each output bit in the design's output ports, the order of a
   trace's outputs.
   @raise Not_found if the design lacks one. *)
let output_positions netlist =
  let index = Hashtbl.create 128 in
  List.iteri
    (fun i (port, _) -> if not (Hashtbl.mem index port) then Hashtbl.add index port i)
    netlist.Aging_netlist.Netlist.output_ports;
  Array.map (Array.map (Hashtbl.find index)) output_names

let decode_output positions outs lane =
  let raw = ref 0 in
  for bit = io_width - 1 downto 0 do
    raw := (!raw lsl 1) lor Bool.to_int outs.(positions.(lane).(bit))
  done;
  if !raw >= 1 lsl (io_width - 1) then !raw - (1 lsl io_width) else !raw

let run_vectors sim ~period vectors =
  let vecs = Array.of_list vectors in
  let n = Array.length vecs in
  if n = 0 then []
  else begin
    let positions = output_positions (Event_sim.design sim) in
    let stimulus cycle =
      let v = vecs.(min cycle (n - 1)) in
      List.concat (List.init 8 (fun lane -> port_bits lane v.(lane)))
    in
    let trace = Event_sim.run sim ~period ~cycles:(n + latency) ~stimulus in
    List.init n (fun i ->
        let outs = Array.of_list (List.map snd trace.Event_sim.outputs.(i + latency)) in
        Array.init 8 (fun lane -> decode_output positions outs lane))
  end

(* One 1-D pass over every 8x8 block of a 64-vector list: [rows] selects
   row or column vectors. *)
let blocks_of image =
  let bw = (image.Image.width + 7) / 8 and bh = (image.Image.height + 7) / 8 in
  List.concat
    (List.init bh (fun by -> List.init bw (fun bx -> (bx, by))))

let pass sim ~period ~rows blocks =
  let vectors =
    List.concat_map
      (fun block ->
        List.init 8 (fun k ->
            Array.init 8 (fun j ->
                if rows then block.((k * 8) + j) else block.((j * 8) + k))))
      blocks
  in
  let transformed = run_vectors sim ~period vectors in
  let rec regroup acc = function
    | [] -> List.rev acc
    | v0 :: v1 :: v2 :: v3 :: v4 :: v5 :: v6 :: v7 :: rest ->
      let vecs = [| v0; v1; v2; v3; v4; v5; v6; v7 |] in
      let block = Array.make 64 0 in
      for k = 0 to 7 do
        for j = 0 to 7 do
          let index = if rows then (k * 8) + j else (j * 8) + k in
          block.(index) <- vecs.(k).(j)
        done
      done;
      regroup (block :: acc) rest
    | _ -> failwith "System_eval.pass: vector count not a multiple of 8"
  in
  regroup [] transformed

let process_image ~dct ~idct ~period image =
  let coords = blocks_of image in
  let centered =
    List.map
      (fun (bx, by) ->
        Array.map (fun p -> p - 128) (Image.block8 image ~bx ~by))
      coords
  in
  let coeffs =
    centered |> pass dct ~period ~rows:true |> pass dct ~period ~rows:false
  in
  let decoded =
    coeffs |> pass idct ~period ~rows:true |> pass idct ~period ~rows:false
  in
  let out = Image.create ~width:image.Image.width ~height:image.Image.height in
  List.iter2
    (fun (bx, by) block ->
      Image.set_block8 out ~bx ~by (Array.map (fun v -> v + 128) block))
    coords decoded;
  out

let reference_image = Dct.roundtrip_image

let rated_chain_period ?(margin = 1.03) ~dct ~idct image =
  let reference = reference_image image in
  let clean period =
    Image.equal (process_image ~dct ~idct ~period image) reference
  in
  let sta_bound =
    Float.max (Event_sim.min_period dct) (Event_sim.min_period idct)
  in
  let rec search lo hi iterations =
    if iterations = 0 then hi
    else begin
      let mid = 0.5 *. (lo +. hi) in
      if clean mid then search lo mid (iterations - 1)
      else search mid hi (iterations - 1)
    end
  in
  let edge =
    if clean (0.55 *. sta_bound) then 0.55 *. sta_bound
    else search (0.55 *. sta_bound) (1.02 *. sta_bound) 5
  in
  margin *. edge
