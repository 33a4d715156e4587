// NL-NAME fixture, three clash shapes: two instances whose names simplify
// alike (\u/5 and u_5), two escaped nets with no plain member (\a/b and
// \a.b both simplify to a_b), and an escaped bus bit against its plain
// twin (\x/y[3] and bit 3 of bus x_y).
module bad_name_groups (a, b, z1, z2);
  input a, b;
  output z1, z2;
  wire \a/b ;
  wire \a.b ;
  wire \x/y[3] ;
  wire [3:3] x_y;
  INVX1 \u/5 (.A(a), .Z(\a/b ));
  INVX1 u_5 (.A(b), .Z(\a.b ));
  BUFX1 u1 (.A(\a/b ), .Z(\x/y[3] ));
  BUFX1 u2 (.A(\a.b ), .Z(x_y[3]));
  AND2X1 u3 (.A(\x/y[3] ), .B(x_y[3]), .Z(z1));
  OR2X1 u4 (.A(\x/y[3] ), .B(x_y[3]), .Z(z2));
endmodule
