module Netlist = Aging_netlist.Netlist
module Builder = Netlist.Builder
module Dct = Aging_image.Dct

let transform_io_width = 13

(* ------------------------- DCT / IDCT ------------------------- *)

let make_transform ~name ~inverse () =
  let b = Builder.create name in
  let (_ : Netlist.net) = Builder.clock b "clk" in
  let c = Bv.ctx b in
  let module A = struct
    type v = Bv.t

    let add = Bv.add_fast c
    let sub = Bv.sub_fast c
    let mul_const v k = Bv.mul_const c v k
    let add_const v k = Bv.add_const c v k
    let asr_const v k = Bv.asr_const c v k
  end in
  let module D = Dct.Make (A) in
  let inputs =
    Array.init 8 (fun i -> Bv.input c (Printf.sprintf "I%d" i) transform_io_width)
  in
  let staged = Array.map (fun v -> Bv.reg c v) inputs in
  let wide = Array.map (fun v -> Bv.sext c v Dct.width) staged in
  let transformed = if inverse then D.inverse_1d wide else D.forward_1d wide in
  Array.iteri
    (fun i v ->
      let narrowed = Bv.slice v ~lo:0 ~hi:(transform_io_width - 1) in
      Bv.output c (Printf.sprintf "O%d" i) (Bv.reg c narrowed))
    transformed;
  Builder.finish b

let dct () = make_transform ~name:"dct" ~inverse:false ()
let idct () = make_transform ~name:"idct" ~inverse:true ()

(* ----------------------------- DSP ----------------------------- *)

let dsp () =
  let b = Builder.create "dsp" in
  let (_ : Netlist.net) = Builder.clock b "clk" in
  let c = Bv.ctx b in
  let a = Bv.reg c (Bv.input c "a" 8) in
  let x = Bv.reg c (Bv.input c "x" 8) in
  let clr = Builder.input b "clr" in
  let product = Bv.reg c (Bv.mul c a x) in
  let acc_width = 20 in
  let acc = Bv.feedback c acc_width in
  let kept = Bv.and_net c acc (Bv.inv_net c clr) in
  let next = Bv.add_fast c kept (Bv.zext c product acc_width) in
  Bv.reg_into c ~d:next ~q:acc;
  Bv.output c "acc" acc;
  Builder.finish b

(* ----------------------------- FFT ----------------------------- *)

(* One radix-2 DIT butterfly with the W8^1 twiddle (1 - j)/sqrt(2),
   scaled by 64: (45 - 45 j) / 64. *)
let fft () =
  let b = Builder.create "fft" in
  let (_ : Netlist.net) = Builder.clock b "clk" in
  let c = Bv.ctx b in
  let w = 12 and internal = 18 in
  let widen name = Bv.sext c (Bv.reg c (Bv.input c name w)) internal in
  let ar = widen "ar" and ai = widen "ai" in
  let br = widen "br" and bi = widen "bi" in
  let scale v = Bv.asr_const c v 6 in
  (* b' = W * b with W = (45 - 45j)/64. *)
  let br' = scale (Bv.add_fast c (Bv.mul_const c br 45) (Bv.mul_const c bi 45)) in
  let bi' = scale (Bv.sub_fast c (Bv.mul_const c bi 45) (Bv.mul_const c br 45)) in
  let out name v =
    Bv.output c name (Bv.reg c (Bv.slice v ~lo:0 ~hi:(w - 1)))
  in
  out "x0r" (Bv.add_fast c ar br');
  out "x0i" (Bv.add_fast c ai bi');
  out "x1r" (Bv.sub_fast c ar br');
  out "x1i" (Bv.sub_fast c ai bi');
  Builder.finish b

(* --------------------- Shared processor pieces --------------------- *)

let word = 16
let nregs = 8
let regsel = 3

(* 8 x 16 register file: one write port, combinational reads by mux tree. *)
let register_file c ~we ~waddr ~wdata =
  let regs =
    Array.init nregs (fun i ->
        let q = Bv.feedback c word in
        let selected = Bv.and2_net c we (Bv.eq_const c waddr i) in
        let d = Bv.mux c ~sel:selected q wdata in
        Bv.reg_into c ~d ~q;
        q)
  in
  let read addr = Bv.mux_tree c ~sel:addr (Array.to_list regs) in
  read

(* Dual-write register file for the VLIW (port 1 wins on conflicts). *)
let register_file2 c ~we0 ~waddr0 ~wdata0 ~we1 ~waddr1 ~wdata1 =
  let regs =
    Array.init nregs (fun i ->
        let q = Bv.feedback c word in
        let sel0 = Bv.and2_net c we0 (Bv.eq_const c waddr0 i) in
        let sel1 = Bv.and2_net c we1 (Bv.eq_const c waddr1 i) in
        let d = Bv.mux c ~sel:sel0 q wdata0 in
        let d = Bv.mux c ~sel:sel1 d wdata1 in
        Bv.reg_into c ~d ~q;
        q)
  in
  let read addr = Bv.mux_tree c ~sel:addr (Array.to_list regs) in
  read

(* 16-bit ALU, op in [0,7]: add sub and or xor shl1 lsr1 passb. *)
let alu c ~op a bv =
  let results =
    [
      Bv.add_fast c a bv;
      Bv.sub_fast c a bv;
      Bv.and_ c a bv;
      Bv.or_ c a bv;
      Bv.xor_ c a bv;
      Bv.shl_const c a 1;
      Bv.concat (Bv.slice a ~lo:1 ~hi:(word - 1)) [| Bv.zero_net c |];
      bv;
    ]
  in
  Bv.mux_tree c ~sel:op results

(* Instruction word: [15]=we, [14:12]=op, [11:9]=rd, [8:6]=ra, [5:3]=rb,
   [5:0] doubles as a signed immediate, [2]=use_imm. *)
let decode instr =
  let f lo hi = Array.sub instr lo (hi - lo + 1) in
  ( instr.(15),          (* we *)
    f 12 14,             (* op *)
    f 9 11,              (* rd *)
    f 6 8,               (* ra *)
    f 3 5,               (* rb *)
    f 0 5,               (* imm6 *)
    instr.(2) )          (* use_imm *)

let eq_vec c a bv =
  let diff = Bv.xor_ c a bv in
  Bv.inv_net c (Bv.reduce_or c diff)

(* Forwarding mux: take [fwd_data] when [fwd_we] and tags match. *)
let forward c ~tag ~fwd_we ~fwd_tag ~fwd_data ~normal =
  let hit = Bv.and2_net c fwd_we (eq_vec c tag fwd_tag) in
  Bv.mux c ~sel:hit normal fwd_data

let risc_pipeline ~name ~six_stages () =
  let b = Builder.create name in
  let (_ : Netlist.net) = Builder.clock b "clk" in
  let c = Bv.ctx b in
  (* Pre-allocate the MEM and WB pipeline registers: their Q nets feed the
     forwarding network and the register file before their D logic exists. *)
  let mem_data = Bv.feedback c word in
  let mem_rd = Bv.feedback c regsel in
  let mem_we = Bv.feedback c 1 in
  let wb_data = Bv.feedback c word in
  let wb_rd = Bv.feedback c regsel in
  let wb_we = Bv.feedback c 1 in
  (* IF: latch the incoming instruction word. *)
  let instr = Bv.reg c (Bv.input c "instr" word) in
  (* ID: decode + register read + operand selection. *)
  let we, op, rd, ra, rb, imm6, use_imm = decode instr in
  let read = register_file c ~we:(Bv.bit wb_we 0) ~waddr:wb_rd ~wdata:wb_data in
  let ra_data = read ra and rb_data = read rb in
  let operand_b = Bv.mux c ~sel:use_imm rb_data (Bv.sext c imm6 word) in
  (* ID/EX pipeline registers. *)
  let ex_a = Bv.reg c ra_data in
  let ex_b = Bv.reg c operand_b in
  let ex_op = Bv.reg c op in
  let ex_rd = Bv.reg c rd in
  let ex_we = Bv.reg c [| we |] in
  let ex_ra = Bv.reg c ra in
  let ex_rb = Bv.reg c rb in
  (* Forwarding from the MEM and WB stages. *)
  let fwd source tag =
    let once =
      forward c ~tag ~fwd_we:(Bv.bit mem_we 0) ~fwd_tag:mem_rd
        ~fwd_data:mem_data ~normal:source
    in
    forward c ~tag ~fwd_we:(Bv.bit wb_we 0) ~fwd_tag:wb_rd ~fwd_data:wb_data
      ~normal:once
  in
  let alu_a = fwd ex_a ex_ra in
  let alu_b = fwd ex_b ex_rb in
  (* EX (split over two stages in the 6-stage variant). *)
  let alu_out, post_rd, post_we =
    if six_stages then begin
      (* EX1 computes the arithmetic results, EX2 selects. *)
      let sum = Bv.reg c (Bv.add_fast c alu_a alu_b) in
      let dif = Bv.reg c (Bv.sub_fast c alu_a alu_b) in
      let a_q = Bv.reg c alu_a and b_q = Bv.reg c alu_b in
      let op_q = Bv.reg c ex_op in
      let rd_q = Bv.reg c ex_rd and we_q = Bv.reg c ex_we in
      let results =
        [
          sum;
          dif;
          Bv.and_ c a_q b_q;
          Bv.or_ c a_q b_q;
          Bv.xor_ c a_q b_q;
          Bv.shl_const c a_q 1;
          Bv.concat (Bv.slice a_q ~lo:1 ~hi:(word - 1)) [| Bv.zero_net c |];
          b_q;
        ]
      in
      (Bv.mux_tree c ~sel:op_q results, rd_q, we_q)
    end
    else (alu c ~op:ex_op alu_a alu_b, ex_rd, ex_we)
  in
  (* MEM and WB pipeline registers (pre-allocated above). *)
  Bv.reg_into c ~d:alu_out ~q:mem_data;
  Bv.reg_into c ~d:post_rd ~q:mem_rd;
  Bv.reg_into c ~d:post_we ~q:mem_we;
  Bv.reg_into c ~d:mem_data ~q:wb_data;
  Bv.reg_into c ~d:mem_rd ~q:wb_rd;
  Bv.reg_into c ~d:mem_we ~q:wb_we;
  Bv.output c "result" wb_data;
  Builder.finish b

let risc5 () = risc_pipeline ~name:"risc5" ~six_stages:false ()
let risc6 () = risc_pipeline ~name:"risc6" ~six_stages:true ()

(* ----------------------------- VLIW ----------------------------- *)

let vliw () =
  let b = Builder.create "vliw" in
  let (_ : Netlist.net) = Builder.clock b "clk" in
  let c = Bv.ctx b in
  (* Two 16-bit instruction slots. *)
  let i0 = Bv.reg c (Bv.input c "slot0" word) in
  let i1 = Bv.reg c (Bv.input c "slot1" word) in
  let we0, op0, rd0, ra0, rb0, imm0, ui0 = decode i0 in
  let we1, op1, rd1, ra1, rb1, imm1, ui1 = decode i1 in
  (* Pre-allocated write-back registers of both lanes. *)
  let wbwe0 = Bv.feedback c 1 and wbwe1 = Bv.feedback c 1 in
  let wbrd0 = Bv.feedback c regsel and wbrd1 = Bv.feedback c regsel in
  let wbd0 = Bv.feedback c word and wbd1 = Bv.feedback c word in
  let read =
    register_file2 c ~we0:(Bv.bit wbwe0 0) ~waddr0:wbrd0 ~wdata0:wbd0
      ~we1:(Bv.bit wbwe1 0) ~waddr1:wbrd1 ~wdata1:wbd1
  in
  let lane we op rd ra rb imm use_imm (wb_we, wb_rd, wb_data) =
    let a = read ra in
    let bsrc = Bv.mux c ~sel:use_imm (read rb) (Bv.sext c imm word) in
    let ex_a = Bv.reg c a and ex_b = Bv.reg c bsrc in
    let ex_op = Bv.reg c op and ex_rd = Bv.reg c rd in
    let ex_we = Bv.reg c [| we |] in
    Bv.reg_into c ~d:(alu c ~op:ex_op ex_a ex_b) ~q:wb_data;
    Bv.reg_into c ~d:ex_rd ~q:wb_rd;
    Bv.reg_into c ~d:ex_we ~q:wb_we
  in
  lane we0 op0 rd0 ra0 rb0 imm0 ui0 (wbwe0, wbrd0, wbd0);
  lane we1 op1 rd1 ra1 rb1 imm1 ui1 (wbwe1, wbrd1, wbd1);
  Bv.output c "r0" wbd0;
  Bv.output c "r1" wbd1;
  Builder.finish b

(* ---------------------------- counter ---------------------------- *)

let counter ~bits =
  let b = Builder.create "counter" in
  let (_ : Netlist.net) = Builder.clock b "clk" in
  let c = Bv.ctx b in
  let enable = Builder.input b "en" in
  let q = Bv.feedback c bits in
  let incremented = Bv.add ~cin:enable c q (Bv.const c 0 bits) in
  Bv.reg_into c ~d:incremented ~q;
  Bv.output c "count" q;
  Builder.finish b

let table =
  [
    ("DSP", dsp);
    ("FFT", fft);
    ("RISC-6P", risc6);
    ("RISC-5P", risc5);
    ("VLIW", vliw);
    ("DCT", dct);
    ("IDCT", idct);
  ]

let names = List.map fst table
let all () = List.map (fun (name, build) -> (name, build ())) table
let by_name name =
  Option.map (fun build -> build ()) (List.assoc_opt name table)
