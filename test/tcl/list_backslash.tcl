# list quoting of elements that hold a backslash, and the other cases of
# Tcl's rule: braces where they can hold the element, escapes where not
puts [list {a\b} c]
puts [list "a b\\c"]
puts [list "a\\"]
puts [list "a b\\"]
puts [list "a\\" b]
puts [list "\\"]
puts [list "a\\\nb"]
puts [list "a\\\nb c"]
puts [list "a\\{b"]
puts [list "a\\}b"]
puts [list "a\\{"]
puts [list "\\{a"]
puts [list "a\\\\b"]
puts [list "a\\ b"]
puts [list "a\\\$b"]
puts [list "a\]\\b"]
puts [list "a\{\\"]
puts [list "a{b\\"]
# a closing bracket or inner quote alone: escapes, braces left alone
puts [list "a\]"]
puts [list "a\"b"]
puts [list "a\{\}\]"]
puts [list "a\]b c"]
puts [list "\"a"]
# balanced braces inside an element need no quoting
puts [list "a\{b\}"]
puts [list "\{"]
puts [list "\}\{"]
# a list's first element must not start a comment
puts [list "#a" "#b"]
puts [list "#a\]"]
puts [list "#a\{"]
# every element reads back
set l [list "a\\" "\{" "\}x" "a\\\nb" "#c" {a\b} "a\{\}\]"]
puts $l
puts [llength $l]
foreach e $l { puts "<$e>" }
puts [lindex $l 3]
# concat joins its arguments as text and re-quotes nothing
puts [concat {#a} b]
puts [concat {a]b} c]
puts [concat " a  b " {c {d e}}]
puts [concat {} x {}]
puts [concat "a\\" b]
puts [concat "a\\ " b]
puts [concat "\{a" b]
