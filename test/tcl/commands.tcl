# commands: proc definitions, redefinition, shadowed builtins, run-time names
proc try {script} {
  if {[catch {uplevel 1 $script} r]} { puts "error: $r" } else { puts "ok: $r" }
}

# redefinition with new parameters; info args and info body follow it
proc area {w} { expr {$w * $w} }
puts "square: [area 3]"
puts "args: [info args area] body: [info body area]"
proc area {w {h 2}} { expr {$w * $h} }
puts "rectangle: [area 3] [area 3 4]"
puts "args: [info args area] body: [info body area]"
try {area}
proc area {args} { llength $args }
puts "variadic: [area] [area a b c]"
puts "args: [info args area]"

# one proc command run with a different body, then parameter list, per pass
set r {}
foreach body {{return first} {return second} {return [list third $x]}} {
  proc step {{x 0}} $body
  lappend r [step]
}
puts "bodies: $r"
set r {}
foreach params {{x args} {{x 5} args} {x y}} {
  proc step $params {info args step}
  lappend r [step 1 2]
}
puts "params: $r"

# one body in two procs, and one command defining two names
set shared {expr {$n + 1}}
proc inc1 {n} $shared
proc inc2 {n} $shared
puts "shared body: [inc1 1] [inc2 10]"
foreach name {twin1 twin2} { proc $name {a b} {list $a $b} }
puts "twins: [twin1 x y] [twin2 p q]"
try {twin2 only}
puts "twin args: [info args twin2] body: [info body twin2]"

# calls through names built at run time
proc op_add {a b} { expr {$a + $b} }
proc op_mul {a b} { expr {$a * $b} }
set r {}
foreach op {add mul add} { lappend r [op_$op 3 4] }
puts "ops: $r"
set cmd llength
puts "builtin by name: [$cmd {a b c}]"
set pre op_
puts "built name: [${pre}mul 5 6]"
try {op_sub 1 2}

# a proc that shadows a builtin: every later call takes the proc
set r {}
foreach i {1 2} {
  lappend r [lreverse {a b c}]
  proc lreverse {l} { return reversed:$l }
}
puts "shadowed: $r"
puts "after: [lreverse {x y}] [info args lreverse]"

# a braced name(index) is an array element, its index taken as written
set arr(1) one
set i 1
set arr(\$i) dollar
puts "braced element: ${arr(1)} ${arr($i)}"
try {set v ${nosuch(1)}}
set scalar 5
try {set v ${scalar(1)}}

# levels past the global scope are errors, relative and absolute alike
try {uplevel 1 {set x 1}}
try {uplevel {set x 1}}
try {upvar y v}
try {upvar #1 y v}
proc up3 {} { upvar 3 y v }
try {up3}
proc upabs {} { uplevel #2 {set y 1} }
try {upabs}
proc uplocal {} { uplevel 0 {set here 1}; set here }
try {uplocal}
proc upglobal {} { uplevel #1 {set mine 2}; set mine }
try {upglobal}

# info procs and info commands filter by a glob pattern
puts "procs tw*: [lsort [info procs tw*]]"
puts "commands tw*: [lsort [info commands tw*]]"
