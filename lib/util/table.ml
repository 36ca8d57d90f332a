type align = Left | Right

type t = {
  title : string;
  headers : string array;
  aligns : align array;
  rows : string array Vec.t;
}

let create ~title ~columns =
  {
    title;
    headers = Array.of_list (List.map fst columns);
    aligns = Array.of_list (List.map snd columns);
    rows = Vec.create ();
  }

let add_row t cells =
  let row = Array.of_list cells in
  if Array.length row <> Array.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: expected %d cells, got %d" (Array.length t.headers)
         (Array.length row));
  Vec.push t.rows row


let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    match align with
    | Left -> s ^ String.make (width - n) ' '
    | Right -> String.make (width - n) ' ' ^ s

let render t =
  let ncols = Array.length t.headers in
  let widths = Array.map String.length t.headers in
  Vec.iter
    (fun row ->
      Array.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) row)
    t.rows;
  let buf = Buffer.create 256 in
  let sep =
    "+" ^ String.concat "+" (Array.to_list (Array.map (fun w -> String.make (w + 2) '-') widths)) ^ "+"
  in
  let emit_row align_for row =
    Buffer.add_char buf '|';
    for i = 0 to ncols - 1 do
      Buffer.add_char buf ' ';
      Buffer.add_string buf (pad (align_for i) widths.(i) row.(i));
      Buffer.add_string buf " |"
    done;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf ("== " ^ t.title ^ " ==\n");
  Buffer.add_string buf (sep ^ "\n");
  emit_row (fun _ -> Left) t.headers;
  Buffer.add_string buf (sep ^ "\n");
  Vec.iter (fun row -> emit_row (fun i -> t.aligns.(i)) row) t.rows;
  Buffer.add_string buf sep;
  Buffer.contents buf

let print t = print_endline (render t)

let cell_f x = Printf.sprintf "%.2f" x

let cell_i n = string_of_int n


let cell_ratio x = Printf.sprintf "%.2fx" x
