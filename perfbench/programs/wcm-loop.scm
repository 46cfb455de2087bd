;; Tail with-continuation-mark loop: the shape of a library parameterize
;; consulted on every iteration. Each round rebinds the key in tail
;; position and reads it back with a first-mark lookup.
(define (wcm-loop n)
  (let loop ([i n] [acc 0])
    (if (zero? i)
        acc
        (with-continuation-mark 'param i
          (loop (- i 1) (+ acc (continuation-mark-set-first #f 'param 0)))))))
