# lsort: each option TScript implements, alone and combined, and the
# errors of bad elements; lreverse, which hands an empty list back as it
# was written
proc try {script} {
  if {[catch {uplevel 1 $script} r]} { puts "error: $r" } else { puts "ok: $r" }
}

try {lsort {b a c B A}}
try {lsort {}}
try {lsort {one}}
try {lsort -ascii {a10 a9 A1 b}}
try {lsort -increasing {b a c}}
try {lsort -decreasing {b a c}}
try {lsort -integer {10 9 2 -3 0x10 +4}}
try {lsort -integer -decreasing {10 9 2 -3}}
try {lsort -real {2.5 -1 1e1 3 0.5}}
try {lsort -real -decreasing {2.5 -1 1e1 3}}
try {lsort -unique {b a b c a}}
try {lsort -unique -decreasing {b a b c a}}
# -unique keeps the last of equal keys; equal keys keep their order
try {lsort -integer -unique {1 01 2 1 02}}
try {lsort -real -unique {1 1.0 2 2.0}}
try {lsort -integer {3 03 1 003}}
try {lsort -integer -decreasing {3 03 1 003}}
# the last of conflicting options wins
try {lsort -integer -ascii {10 9}}
try {lsort -ascii -integer {10 9}}
try {lsort -decreasing -increasing {b a c}}
# a lone argument is the list, whatever it looks like
try {lsort -unique}
try {lsort -integer}
# elements that are not numbers
try {lsort -integer {2 x 1}}
try {lsort -integer {1.5 2}}
try {lsort -real {2 y}}
try {lsort -integer {a}}
try {lsort {a \{}}
try {lsort}

try {lreverse {a {b c} d}}
try {lreverse {x}}
try {lreverse {}}
puts "\[[lreverse { }]\] \[[lreverse "\t"]\]"
